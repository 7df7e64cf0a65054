#include "des/simulator.hpp"

#include "util/error.hpp"

namespace spacecdn::des {

void Simulator::schedule(Milliseconds delay, Action action) {
  SPACECDN_EXPECT(delay.value() >= 0.0, "event delay must be non-negative");
  schedule_at(now_ + delay, std::move(action));
}

void Simulator::schedule_at(Milliseconds when, Action action) {
  SPACECDN_EXPECT(when >= now_, "cannot schedule an event in the past");
  SPACECDN_EXPECT(static_cast<bool>(action), "event action must be callable");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot] = std::move(action);
  queue_.push(Entry{when, next_seq_++, slot});
}

void Simulator::run() {
  while (!queue_.empty()) {
    const Entry entry = queue_.top();
    queue_.pop();
    // Move the action out (leaving the slot empty) and recycle the slot
    // before invoking, so the action may schedule into this very slot.
    Action action = std::move(slots_[entry.slot]);
    free_slots_.push_back(entry.slot);
    now_ = entry.when;
    ++processed_;
    action();
  }
}

}  // namespace spacecdn::des
