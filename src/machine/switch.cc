#include "src/machine/switch.h"

#include <cstring>
#include <utility>

#include "src/base/panic.h"

namespace oskit {

namespace {

// Packs a 48-bit MAC into the learning-table key.
uint64_t PackMac(const uint8_t* mac) {
  uint64_t key = 0;
  for (int i = 0; i < 6; ++i) {
    key = (key << 8) | mac[i];
  }
  return key;
}

// Group bit (I/G) of the destination address: broadcast and multicast
// frames are never unicast-forwarded, and group source addresses are never
// learned.
bool IsGroupMac(const uint8_t* mac) { return (mac[0] & 0x01) != 0; }

constexpr size_t kMacBytes = 6;
constexpr size_t kHeaderBytes = 14;  // dst + src + ethertype

}  // namespace

VirtualSwitch::VirtualSwitch(SimClock* clock, const Config& config,
                             trace::TraceEnv* trace)
    : clock_(clock), config_(config), rng_(config.fault_seed) {
  trace::TraceEnv* env = trace::ResolveTraceEnv(trace);
  trace_binding_.Bind(&env->registry,
                      {{"switch.frames.in", &frames_in_},
                       {"switch.frames.unicast", &frames_unicast_},
                       {"switch.frames.flooded", &frames_flooded_},
                       {"switch.frames.dropped", &frames_dropped_},
                       {"switch.frames.duplicated", &frames_duplicated_},
                       {"switch.frames.filtered", &frames_filtered_},
                       {"switch.bytes", &bytes_carried_},
                       {"switch.gather_transmits", &gather_transmits_},
                       {"switch.macs.learned", &macs_learned_, /*gauge=*/true},
                       {"switch.macs.moves", &mac_moves_},
                       {"switch.macs.table_full", &mac_table_full_}});
}

void VirtualSwitch::Attach(WireEndpoint* endpoint) {
  ports_.push_back(Port{endpoint, config_.port, /*egress_free_at=*/0});
}

int VirtualSwitch::PortOf(const WireEndpoint* endpoint) const {
  for (size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].endpoint == endpoint) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void VirtualSwitch::SetPortConfig(int port, const PortConfig& config) {
  OSKIT_ASSERT_MSG(port >= 0 && static_cast<size_t>(port) < ports_.size(),
                   "bad switch port");
  ports_[port].config = config;
}

const VirtualSwitch::PortConfig& VirtualSwitch::port_config(int port) const {
  OSKIT_ASSERT_MSG(port >= 0 && static_cast<size_t>(port) < ports_.size(),
                   "bad switch port");
  return ports_[port].config;
}

void VirtualSwitch::Transmit(WireEndpoint* source, const uint8_t* frame,
                             size_t len) {
  int in = PortOf(source);
  OSKIT_ASSERT_MSG(in >= 0, "transmit from unattached endpoint");
  Forward(in, std::vector<uint8_t>(frame, frame + len));
}

void VirtualSwitch::Transmit(WireEndpoint* source, const uint8_t* const* chunks,
                             const size_t* lens, size_t count) {
  int in = PortOf(source);
  OSKIT_ASSERT_MSG(in >= 0, "transmit from unattached endpoint");
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
  Forward(in, std::move(frame));
}

void VirtualSwitch::Forward(int in_port, std::vector<uint8_t> frame) {
  ++frames_in_;
  bytes_carried_ += frame.size();
  OSKIT_ASSERT_MSG(frame.size() >= kHeaderBytes, "runt frame at switch");

  const uint8_t* dst = frame.data();
  const uint8_t* src = frame.data() + kMacBytes;

  // Learn (or migrate) the source address on the ingress port.
  if (!IsGroupMac(src)) {
    uint64_t key = PackMac(src);
    auto it = mac_table_.find(key);
    if (it == mac_table_.end()) {
      if (mac_table_.size() < config_.max_macs) {
        mac_table_.emplace(key, in_port);
        ++macs_learned_;
      } else {
        ++mac_table_full_;  // table saturated: keep flooding for this MAC
      }
    } else if (it->second != in_port) {
      it->second = in_port;  // station moved ports
      ++mac_moves_;
    }
  }

  // Forwarding decision: unicast to the learned port, else flood.
  if (!IsGroupMac(dst)) {
    auto it = mac_table_.find(PackMac(dst));
    if (it != mac_table_.end()) {
      if (it->second == in_port) {
        // Destination lives on the ingress segment; a real switch filters
        // the frame rather than echoing it back.
        ++frames_filtered_;
        return;
      }
      ++frames_unicast_;
      Egress(it->second, std::move(frame));
      return;
    }
  }

  ++frames_flooded_;
  // The last output port takes the frame's buffer; earlier ones get copies.
  int last = static_cast<int>(ports_.size()) - 1;
  if (last == in_port) {
    --last;
  }
  for (int out = 0; out <= last; ++out) {
    if (out == in_port) {
      continue;
    }
    Egress(out, out == last ? std::move(frame) : frame);
  }
}

void VirtualSwitch::Egress(int out, std::vector<uint8_t> frame) {
  Port& port = ports_[static_cast<size_t>(out)];
  const PortConfig& cfg = port.config;

  if (cfg.loss_percent != 0 && rng_.Percent(cfg.loss_percent)) {
    ++frames_dropped_;
    return;
  }

  // Per-port serialization: frames leave this egress back to back, but two
  // different ports transmit concurrently (no shared collision domain).
  SimTime start = clock_->Now();
  if (start < port.egress_free_at) {
    start = port.egress_free_at;
  }
  SimTime serialize = 0;
  if (cfg.bits_per_second != 0) {
    serialize = static_cast<SimTime>(frame.size()) * 8 * kNsPerSec /
                cfg.bits_per_second;
  }
  port.egress_free_at = start + serialize;
  SimTime arrival = port.egress_free_at + cfg.propagation_ns;

  SimTime when = arrival;
  if (cfg.reorder_jitter_ns != 0) {
    when += rng_.Below(cfg.reorder_jitter_ns + 1);
  }
  if (cfg.duplicate_percent != 0 && rng_.Percent(cfg.duplicate_percent)) {
    ++frames_duplicated_;
    SimTime dup_when = arrival;
    if (cfg.reorder_jitter_ns != 0) {
      dup_when += rng_.Below(cfg.reorder_jitter_ns + 1);
    }
    ScheduleDelivery(port.endpoint, frame, dup_when);
  }
  ScheduleDelivery(port.endpoint, std::move(frame), when);
}

void VirtualSwitch::ScheduleDelivery(WireEndpoint* dest,
                                     std::vector<uint8_t> frame,
                                     SimTime when) {
  SimTime delay = when > clock_->Now() ? when - clock_->Now() : 0;
  clock_->ScheduleAfter(delay, [dest, frame = std::move(frame)]() mutable {
    dest->FrameArrived(std::move(frame));
  });
}

}  // namespace oskit
