#include "src/machine/wire.h"

namespace oskit {

void EthernetWire::Transmit(WireEndpoint* source, const uint8_t* frame, size_t len) {
  Deliver(source, std::vector<uint8_t>(frame, frame + len));
}

void EthernetWire::Transmit(WireEndpoint* source, const uint8_t* const* chunks,
                            const size_t* lens, size_t count) {
  // Gather DMA: assemble the descriptor list directly into the delivery
  // buffer; on a real NIC this is the DMA engine walking the descriptors.
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    total += lens[i];
  }
  std::vector<uint8_t> frame;
  frame.reserve(total);
  for (size_t i = 0; i < count; ++i) {
    frame.insert(frame.end(), chunks[i], chunks[i] + lens[i]);
  }
  ++gather_transmits_;
  Deliver(source, std::move(frame));
}

void EthernetWire::Deliver(WireEndpoint* source, std::vector<uint8_t> frame) {
  size_t len = frame.size();
  ++frames_sent_;
  bytes_carried_ += len;

  // Serialization: frames occupy the shared medium back to back.
  SimTime start = clock_->Now();
  if (start < medium_free_at_) {
    start = medium_free_at_;
  }
  SimTime serialize = 0;
  if (config_.bits_per_second != 0) {
    serialize = static_cast<SimTime>(len) * 8 * kNsPerSec / config_.bits_per_second;
  }
  medium_free_at_ = start + serialize;
  SimTime arrival = medium_free_at_ + config_.propagation_ns;

  // The last destination takes the frame's buffer; earlier ones get copies.
  size_t last = endpoints_.size();
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i] != source) {
      last = i;
    }
  }
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    WireEndpoint* dest = endpoints_[i];
    if (dest == source) {
      continue;
    }
    if (config_.loss_percent != 0 && rng_.Percent(config_.loss_percent)) {
      ++frames_dropped_;
      continue;
    }
    SimTime when = arrival;
    if (config_.reorder_jitter_ns != 0) {
      when += rng_.Below(config_.reorder_jitter_ns + 1);
    }
    if (config_.duplicate_percent != 0 && rng_.Percent(config_.duplicate_percent)) {
      ++frames_duplicated_;
      SimTime dup_when = when;
      if (config_.reorder_jitter_ns != 0) {
        dup_when = arrival + rng_.Below(config_.reorder_jitter_ns + 1);
      }
      ScheduleDelivery(dest, frame, dup_when);
    }
    ScheduleDelivery(dest, i == last ? std::move(frame) : frame, when);
  }
}

void EthernetWire::ScheduleDelivery(WireEndpoint* dest, std::vector<uint8_t> frame,
                                    SimTime when) {
  SimTime delay = when > clock_->Now() ? when - clock_->Now() : 0;
  clock_->ScheduleAfter(delay, [dest, frame = std::move(frame)]() mutable {
    dest->FrameArrived(std::move(frame));
  });
}

}  // namespace oskit
