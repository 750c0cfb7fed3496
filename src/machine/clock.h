// Discrete-event simulated clock.
//
// All hardware timing in the simulated platform — wire propagation, disk
// seeks, timer chips — is expressed as events on one shared clock, so a
// multi-machine world (two PCs on an Ethernet segment) advances through a
// single totally-ordered event sequence and every run is reproducible.

#ifndef OSKIT_SRC_MACHINE_CLOCK_H_
#define OSKIT_SRC_MACHINE_CLOCK_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace oskit {

using SimTime = uint64_t;  // nanoseconds since simulation start

inline constexpr SimTime kNsPerUs = 1000;
inline constexpr SimTime kNsPerMs = 1000 * 1000;
inline constexpr SimTime kNsPerSec = 1000 * 1000 * 1000;

class SimClock {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (clamped to >= Now()).
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules `fn` to run `delay` ns from now.
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending event.  Returns false if it already ran or was
  // cancelled (safe to call redundantly).  Watchdog patterns rely on that
  // distinction: "cancel failed" is how a waker learns the timeout already
  // fired, so cancelling a completed event must NOT report success.
  bool Cancel(EventId id);

  bool HasPending() const { return pending_ != 0; }

  // Time of the earliest pending event; ~0 when none are pending.
  SimTime NextEventTime();

  // Runs the earliest pending event, advancing Now() to its time.
  // Returns false when no events remain.
  bool RunOne();

  // Runs events until `deadline` (events at exactly `deadline` included);
  // Now() ends at `deadline` even if the queue drains earlier.
  void RunUntil(SimTime deadline);

  size_t events_run() const { return events_run_; }

 private:
  // Event storage is a slab of slots reused through a free list, so a
  // schedule/run cycle allocates nothing in the engine itself.  An EventId
  // is (generation << 32) | slot; the slot's generation advances whenever
  // its event runs or is cancelled, so a stale id never matches the slot's
  // next occupant.
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
  };

  // Heap entry: ordered by (when, seq); `generation` tells a live entry
  // from one whose event was cancelled (the slot may since hold another).
  struct Entry {
    SimTime when;
    uint64_t seq;  // tie-break: schedule order
    uint32_t slot;
    uint32_t generation;
  };

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // True when the heap entry's event was cancelled after it was queued.
  bool Stale(const Entry& e) const {
    return slots_[e.slot].generation != e.generation;
  }

  // Retires a slot (its event ran or was cancelled): invalidates its id and
  // returns it to the free list.
  void Release(uint32_t slot);

  // Pops cancelled entries off the top; false when nothing is pending.
  bool SkipCancelled();

  // Pops the (live) top entry, moves its callback out and runs it.
  void RunTop();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t events_run_ = 0;
  size_t pending_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_CLOCK_H_
