// Simulated Ethernet segment.
//
// Stands in for the paper's 100 Mbps Ethernet between two Pentium Pro PCs.
// Frames transmitted by one attached NIC are delivered to every other NIC
// (the NIC model does its own destination filtering, like real hardware).
// The wire models serialization delay (bandwidth), propagation latency, and
// an optional fault model (loss / duplication / reordering) driven by a
// seeded deterministic RNG — the substrate for the TCP property tests.

#ifndef OSKIT_SRC_MACHINE_WIRE_H_
#define OSKIT_SRC_MACHINE_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/base/random.h"
#include "src/machine/clock.h"

namespace oskit {

// Receiver-side attachment: the NIC model implements this.  The frame's
// buffer is handed over, so a receiver can keep it without copying.
class WireEndpoint {
 public:
  virtual ~WireEndpoint() = default;
  virtual void FrameArrived(std::vector<uint8_t>&& frame) = 0;
};

// What a NIC plugs into: either the shared-medium EthernetWire below (the
// paper's two-PC segment) or the learning VirtualSwitch (src/machine/switch.h)
// that scales one simulation to N hosts.  The NIC model only ever sees this
// face, so the same machine works on either fabric.
class EtherLink {
 public:
  virtual ~EtherLink() = default;

  virtual void Attach(WireEndpoint* endpoint) = 0;

  // Transmits a complete frame from `source`.
  virtual void Transmit(WireEndpoint* source, const uint8_t* frame,
                        size_t len) = 0;

  // Gather-DMA transmit: the frame is described as an iovec-style chunk list
  // and the link-side engine assembles it straight into the delivery buffer.
  virtual void Transmit(WireEndpoint* source, const uint8_t* const* chunks,
                        const size_t* lens, size_t count) = 0;
};

class EthernetWire : public EtherLink {
 public:
  struct Config {
    // 0 means infinite bandwidth (no serialization delay).
    uint64_t bits_per_second = 0;
    SimTime propagation_ns = 0;
    // Fault model, percentages in [0, 100].
    uint32_t loss_percent = 0;
    uint32_t duplicate_percent = 0;
    // Extra random jitter (uniform in [0, reorder_jitter_ns]) added per
    // frame; nonzero values cause reordering.
    SimTime reorder_jitter_ns = 0;
    uint64_t fault_seed = 1;
  };

  EthernetWire(SimClock* clock, const Config& config)
      : clock_(clock), config_(config), rng_(config.fault_seed) {}

  void Attach(WireEndpoint* endpoint) override { endpoints_.push_back(endpoint); }

  // Runtime fault-model control: lets a test partition the segment
  // (100% loss) and later heal it.
  void set_loss_percent(uint32_t percent) { config_.loss_percent = percent; }

  // Transmits a frame from `source`; delivered to all other endpoints.
  void Transmit(WireEndpoint* source, const uint8_t* frame, size_t len) override;

  // Gather-DMA transmit: the frame is described as an iovec-style chunk
  // list and the wire-side engine assembles it straight into the delivery
  // buffer — the NIC model never stages it through a bounce buffer.
  void Transmit(WireEndpoint* source, const uint8_t* const* chunks,
                const size_t* lens, size_t count) override;

  // Statistics (exposed implementation, §4.6).
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_duplicated() const { return frames_duplicated_; }
  uint64_t bytes_carried() const { return bytes_carried_; }
  uint64_t gather_transmits() const { return gather_transmits_; }

 private:
  // Common fan-out: serialization, fault model, per-destination scheduling.
  void Deliver(WireEndpoint* source, std::vector<uint8_t> frame);

  void ScheduleDelivery(WireEndpoint* dest, std::vector<uint8_t> frame,
                        SimTime when);

  SimClock* clock_;
  Config config_;
  Rng rng_;
  std::vector<WireEndpoint*> endpoints_;
  SimTime medium_free_at_ = 0;  // shared-medium serialization point
  uint64_t frames_sent_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_duplicated_ = 0;
  uint64_t bytes_carried_ = 0;
  uint64_t gather_transmits_ = 0;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_WIRE_H_
