// Discrete-event simulation core.
//
// A minimal event-driven engine: a monotonic clock and a stable priority
// queue of (time, sequence, action) that run() drains.  All higher-level
// simulations (speed-test campaigns, web page fetches, striped video
// sessions, duty-cycle slots, the request-level load engine) are expressed
// as events on this engine.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace spacecdn::des {

/// Event-driven simulator with a millisecond-resolution double clock.
///
/// Events scheduled for the same instant fire in scheduling order (stable).
/// Actions may schedule further events; time never moves backwards.
class Simulator {
 public:
  /// Small-buffer-optimised: typical load-engine captures live inside the
  /// event slot itself, so steady-state scheduling never heap-allocates.
  using Action = InlineFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Milliseconds now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t processed_events() const noexcept { return processed_; }

  /// Schedules `action` to run `delay` from now.
  /// @throws spacecdn::ConfigError if delay is negative.
  void schedule(Milliseconds delay, Action action);

  /// Schedules `action` at an absolute time >= now().
  void schedule_at(Milliseconds when, Action action);

  /// Runs events until the queue drains.
  void run();

 private:
  struct Entry {
    Milliseconds when;
    std::uint64_t seq;
    std::uint32_t slot;
    // Ordering for the min-heap: earliest time first, FIFO within a time.
    bool operator>(const Entry& other) const noexcept {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  // Actions live in a pooled slot array rather than in the heap entries: the
  // heap sifts small (time, seq, slot) records, and fired slots are recycled
  // through a free list.  Open-loop load sweeps push millions of events
  // through here; the pool is what keeps the engine allocation-free at
  // steady state.
  Milliseconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<Action> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace spacecdn::des
