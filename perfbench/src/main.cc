// perfbench: one command for host time and simulated time.
//
//   perfbench --workload http_mix|tcp_bulk_rr|fs_journal --seed N
//             --seconds S --trace 0|1
//
// Runs identical rounds of the workload (each a fresh world built from the
// seed) until S seconds have passed since the process started, checks every
// round's outputs and that every round's simulated results are identical,
// and prints one JSON line as the last line of stdout:
//
//   --trace 0: the end-to-end metrics (host metrics are the best decile of
//              the rounds: on a shared machine interference only adds time,
//              so the fastest rounds track the program and the slow tail
//              tracks the neighbours; simulated metrics are exact for the
//              seed);
//   --trace 1: after the reference round, traced rounds alternating with
//              untraced ones; every round's simulated results must equal the
//              reference's.  Prints the per-layer metrics (means over traced
//              rounds) and the tracing overhead.
//
// "attempted" and "failed" count the operations of every round.  The exit
// status is 0 only when every check passed.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt->workload = val;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt->trace = std::strcmp(val, "0") != 0;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !opt->workload.empty() && opt->seconds > 0;
}

// Everything simulated a round reports, as one comparable string.
std::string SimSignature(const RoundResult& r) {
  std::string sig;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ops=%" PRIu64 " bytes=%" PRIu64
                " sim_ns=%" PRIu64 " lat=", r.ops, r.bytes, r.phase_sim_ns);
  sig += buf;
  Digest d;
  d.Feed(reinterpret_cast<const uint8_t*>(r.lat_ns.data()),
         r.lat_ns.size() * sizeof(uint64_t));
  std::snprintf(buf, sizeof(buf), "%zu/%016" PRIx64, r.lat_ns.size(),
                d.Final());
  sig += buf;
  for (const auto& [name, v] : r.counters) {
    std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, name.c_str(), v);
    sig += buf;
  }
  return sig;
}

// First differing counter of two signatures, for the error message.
std::string FirstDifference(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) {
    ++i;
  }
  size_t start = a.rfind(' ', i);
  start = start == std::string::npos ? 0 : start + 1;
  return a.substr(start, 60) + " vs " + b.substr(start, 60);
}

void PrintMetric(std::string* out, const std::string& name, double value,
                 const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name.c_str(), value, unit);
  *out += buf;
}

const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("host_ns_per_byte")) return "ns/B";
  if (ends("_us")) return "us";
  if (ends("host_ns") || name.find("host_ns_per") != std::string::npos) {
    return "ns";
  }
  if (ends("ratio") || ends("share")) return "ratio";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload http_mix|tcp_bulk_rr|fs_journal "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  RoundResult (*run)(uint64_t, bool) = nullptr;
  if (opt.workload == "http_mix") {
    run = RunHttpMix;
  } else if (opt.workload == "tcp_bulk_rr") {
    run = RunTcpBulkRr;
  } else if (opt.workload == "fs_journal") {
    run = RunFsJournal;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }

  bool correct = true;
  std::string error;
  auto check = [&](const RoundResult& r, const std::string& reference,
                   const char* what) {
    if (!r.ok && correct) {
      correct = false;
      error = r.error;
    }
    std::string sig = SimSignature(r);
    if (correct && !reference.empty() && sig != reference) {
      correct = false;
      error = std::string(what) + ": " + FirstDifference(reference, sig);
    }
  };

  // The first round is untraced in both modes: its set-up is the cold one
  // (timed from process start) and its simulated results are the reference.
  const uint64_t kMeasureNs = static_cast<uint64_t>(opt.seconds * 1e9);
  const uint64_t start_wall = WallNs();
  auto time_left = [&] { return WallNs() - start_wall < kMeasureNs; };
  const uint64_t startup_cpu = CpuNs();  // loader and static init, if any
  RoundResult first = run(opt.seed, /*traced=*/false);
  std::string reference = SimSignature(first);
  check(first, "", "");
  uint64_t attempted = 0, failed = 0;
  auto count = [&](const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  };
  count(first);
  std::vector<double> ops_rate, ns_per_byte;
  auto note_host = [&](const RoundResult& r) {
    double cpu_ns = static_cast<double>(r.phase_cpu_ns);
    ops_rate.push_back(static_cast<double>(r.ops) * 1e9 / cpu_ns);
    ns_per_byte.push_back(cpu_ns / static_cast<double>(r.bytes));
    std::fprintf(stderr, "round %zu: %.1f op/s  %.4f ns/B  setup %.4f s\n",
                 ops_rate.size() - 1, ops_rate.back(), ns_per_byte.back(),
                 static_cast<double>(r.setup_cpu_ns) / 1e9);
  };
  note_host(first);

  std::string metrics;
  if (!opt.trace) {
    while (correct && time_left()) {
      RoundResult r = run(opt.seed, false);
      check(r, reference, "rounds of one seed differ");
      count(r);
      note_host(r);
    }
    std::vector<double> lat(first.lat_ns.begin(), first.lat_ns.end());
    if (lat.size() < 1000) {
      correct = false;
      error = "fewer than 1000 latency samples per round";
    }
    PrintMetric(&metrics, "setup_s",
                static_cast<double>(startup_cpu + first.setup_cpu_ns) / 1e9,
                "s");
    PrintMetric(&metrics, "ops_per_host_s", Quantile(ops_rate, 0.9),
                "op/s");
    PrintMetric(&metrics, "host_ns_per_byte", Quantile(ns_per_byte, 0.1),
                "ns/B");
    PrintMetric(&metrics, "sim_goodput_mbps",
                static_cast<double>(first.bytes) * 8 * 1e3 /
                    static_cast<double>(first.phase_sim_ns),
                "Mbit/s");
    PrintMetric(&metrics, "sim_p50_us", Quantile(lat, 0.50) / 1e3, "us");
    PrintMetric(&metrics, "sim_p99_us", Quantile(lat, 0.99) / 1e3, "us");
    PrintMetric(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Traced rounds alternate with untraced ones; the difference of their
    // median host time per op is the tracing overhead.
    std::vector<RoundResult> traced;
    std::vector<double> traced_per_op, untraced_per_op;
    while (correct && (traced.empty() || time_left())) {
      RoundResult u = run(opt.seed, false);
      check(u, reference, "rounds of one seed differ");
      untraced_per_op.push_back(static_cast<double>(u.phase_cpu_ns) /
                                static_cast<double>(u.ops));
      RoundResult r = run(opt.seed, true);
      check(r, reference, "traced round differs from the untraced one");
      traced_per_op.push_back(static_cast<double>(r.phase_cpu_ns) /
                              static_cast<double>(r.ops));
      count(u);
      count(r);
      traced.push_back(std::move(r));
    }
    double overhead =
        Quantile(traced_per_op, 0.5) - Quantile(untraced_per_op, 0.5);
    for (const std::string& name : LayerMetricNames()) {
      double mean = 0;
      if (name == "trace.overhead_host_ns_per_op") {
        mean = overhead;
      } else {
        for (const RoundResult& r : traced) {
          auto it = r.layers.find(name);
          mean += (it == r.layers.end() ? 0.0 : it->second) / traced.size();
        }
      }
      PrintMetric(&metrics, name, mean, LayerUnit(name));
    }
  }

  if (!correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
