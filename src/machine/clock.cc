#include "src/machine/clock.h"

#include <utility>

#include "src/base/panic.h"

namespace oskit {

SimClock::EventId SimClock::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  queue_.push(Entry{when, next_seq_++, slot, s.generation});
  ++pending_;
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

void SimClock::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  // Generation 0 is never issued, so no id equals kInvalidEvent.
  if (++s.generation == 0) {
    s.generation = 1;
  }
  free_slots_.push_back(slot);
  --pending_;
}

bool SimClock::Cancel(EventId id) {
  // Only a still-pending event can be cancelled; an id that already ran (or
  // was cancelled) has an older generation than its slot and reports
  // failure, so watchdog users can tell the two apart.
  uint32_t slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size() ||
      slots_[slot].generation != static_cast<uint32_t>(id >> 32)) {
    return false;
  }
  // Lazy deletion: the heap entry is skipped when it surfaces.  The
  // callback (and whatever it captured) is released now.
  slots_[slot].fn = nullptr;
  Release(slot);
  return true;
}

bool SimClock::SkipCancelled() {
  while (!queue_.empty() && Stale(queue_.top())) {
    queue_.pop();
  }
  return !queue_.empty();
}

SimTime SimClock::NextEventTime() {
  return SkipCancelled() ? queue_.top().when : ~static_cast<SimTime>(0);
}

void SimClock::RunTop() {
  Entry top = queue_.top();
  queue_.pop();
  OSKIT_ASSERT(top.when >= now_);
  // Move the callback out before running it: the callback may schedule new
  // events, which can reuse this slot or grow the slab.
  std::function<void()> fn = std::move(slots_[top.slot].fn);
  Release(top.slot);
  now_ = top.when;
  ++events_run_;
  fn();
}

bool SimClock::RunOne() {
  if (!SkipCancelled()) {
    return false;
  }
  RunTop();
  return true;
}

void SimClock::RunUntil(SimTime deadline) {
  while (SkipCancelled() && queue_.top().when <= deadline) {
    RunTop();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace oskit
