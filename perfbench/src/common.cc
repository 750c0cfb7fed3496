#include "perfbench/src/common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "perfbench/src/tracer.h"

namespace perfbench {

uint64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t GenWord(uint64_t seed, uint64_t stream, uint64_t word) {
  return Mix(seed * 0x9e3779b97f4a7c15ull ^ Mix(stream + 0x632be59bd9b4e019ull) ^
             (word * 0xd6e8feb86659fd93ull));
}

}  // namespace

uint8_t GenByte(uint64_t seed, uint64_t stream, uint64_t i) {
  return static_cast<uint8_t>(GenWord(seed, stream, i / 8) >> ((i % 8) * 8));
}

void GenFill(uint64_t seed, uint64_t stream, uint64_t offset, uint8_t* out,
             size_t len) {
  size_t i = 0;
  while (i < len && (offset + i) % 8 != 0) {
    out[i] = GenByte(seed, stream, offset + i);
    ++i;
  }
  for (; i + 8 <= len; i += 8) {
    uint64_t w = GenWord(seed, stream, (offset + i) / 8);
    std::memcpy(out + i, &w, 8);  // little-endian host, as GenByte assumes
  }
  for (; i < len; ++i) {
    out[i] = GenByte(seed, stream, offset + i);
  }
}

bool GenEqual(uint64_t seed, uint64_t stream, uint64_t offset,
              const uint8_t* data, size_t len) {
  uint8_t chunk[4096];
  for (size_t done = 0; done < len;) {
    size_t n = len - done < sizeof(chunk) ? len - done : sizeof(chunk);
    GenFill(seed, stream, offset + done, chunk, n);
    if (std::memcmp(chunk, data + done, n) != 0) {
      return false;
    }
    done += n;
  }
  return true;
}

void Digest::Feed(const uint8_t* data, size_t len) {
  length_ += len;
  size_t i = 0;
  while (carried_ > 0 && carried_ < 8 && i < len) {
    carry_[carried_++] = data[i++];
  }
  uint64_t h = value_;
  if (carried_ == 8) {
    uint64_t w;
    std::memcpy(&w, carry_, 8);
    h = (h ^ w) * 0x100000001b3ull;
    carried_ = 0;
  }
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
  }
  value_ = h;
  while (i < len) {
    carry_[carried_++] = data[i++];
  }
}

uint64_t Digest::Final() const {
  uint64_t h = value_;
  for (size_t i = 0; i < carried_; ++i) {
    h = (h ^ carry_[i]) * 0x100000001b3ull;
  }
  return h ^ length_;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5)];
}

void Phase::Begin() {
  begun_ = true;
  snap0_ = snapshot_();
  sim0_ = sim_->clock().Now();
  if (tracer_ != nullptr) {
    tracer_->Arm();
  }
  wall0_ = WallNs();
  cpu0_ = CpuNs();
}

void Phase::End() {
  cpu1_ = CpuNs();
  wall1_ = WallNs();
  if (tracer_ != nullptr) {
    tracer_->Disarm();
  }
  ended_ = true;
  sim1_ = sim_->clock().Now();
  snap1_ = snapshot_();
}

void Phase::Report(uint64_t round_start_cpu, RoundResult* out) const {
  if (!begun_ || !ended_) {
    out->Fail("measured phase did not run to its end");
    return;
  }
  out->setup_cpu_ns = cpu0_ - round_start_cpu;
  out->phase_cpu_ns = cpu1_ - cpu0_;
  out->phase_wall_ns = wall1_ - wall0_;
  out->phase_sim_ns = sim1_ - sim0_;
  for (const auto& [name, v] : snap1_) {
    auto it = snap0_.find(name);
    uint64_t before = it == snap0_.end() ? 0 : it->second;
    if (v != before) {
      out->counters[name] = v - before;
    }
  }
}

void Gate::Wait() {
  if (open_) {
    return;
  }
  Span span(tracer_, tracer_ != nullptr ? tracer_->site("bench.wait") : nullptr);
  waiters_.push_back(sim_->scheduler().current());
  sim_->scheduler().BlockCurrent();
}

void Gate::Open() {
  open_ = true;
  for (oskit::Fiber* f : waiters_) {
    sim_->scheduler().Unblock(f);
  }
  waiters_.clear();
}

}  // namespace perfbench
