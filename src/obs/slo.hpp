// SLO engine: error-budget accounting and multi-window burn-rate alerts.
//
// Layered on the load engine's deadline ledger: every request outcome is
// classified good (met the SLO: completed within its deadline) or bad
// (failed, rejected, uncovered, or past-deadline) and bucketed by sim-time.
// The owner calls evaluate() on bucket boundaries (the load engine schedules
// one DES tick per boundary), which applies the standard SRE multi-window
// burn-rate rule: with an objective of `objective`
// (error budget = 1 - objective), the burn rate over a trailing window is
//
//   burn = (bad / total over the window) / (1 - objective)
//
// i.e. 1.0 means the run is consuming its budget exactly at the sustainable
// rate.  An alert fires while BOTH the short and the long window burn at or
// above `burn_threshold` -- the short window makes the alert fast, the long
// window keeps it from flapping on a single bad bucket.  Because buckets,
// evaluation times, and outcomes are all simulation-time driven, alerts
// fire at bit-identical sim-times across runs and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::obs {

struct SloConfig {
  /// Target good fraction (0.999 -> a 0.1% error budget).
  double objective = 0.999;
  /// Fast burn window (catches cliffs quickly).
  Milliseconds short_window{5'000.0};
  /// Slow burn window (suppresses one-bucket blips).
  Milliseconds long_window{60'000.0};
  /// Both windows must burn at >= this multiple of the sustainable rate.
  double burn_threshold = 10.0;
  /// Bucket width; also the evaluation cadence.
  Milliseconds bucket{1'000.0};
};

/// One alert state transition (fire or resolve) with the burn rates that
/// caused it.
struct SloAlert {
  Milliseconds at{0.0};
  bool firing = false;
  double short_burn = 0.0;
  double long_burn = 0.0;
};

class SloTracker {
 public:
  explicit SloTracker(SloConfig config = {});

  /// Records one request outcome at `now` (good = the request met the SLO).
  void record(Milliseconds now, bool good);

  /// Evaluates the trailing windows ending at `now`; when the firing state
  /// flips, appends an SloAlert transition to alerts().
  void evaluate(Milliseconds now);

  /// Burn rate over the trailing `window` ending at `now`, at bucket
  /// granularity; 0 when the window saw no requests.
  [[nodiscard]] double burn_rate(Milliseconds now, Milliseconds window) const;

  [[nodiscard]] bool firing() const noexcept { return firing_; }
  [[nodiscard]] std::uint64_t alerts_fired() const noexcept { return fired_; }
  /// Every fire/resolve transition, in sim-time order.
  [[nodiscard]] const std::vector<SloAlert>& alerts() const noexcept {
    return alerts_;
  }
  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }
  [[nodiscard]] double error_budget() const noexcept {
    return 1.0 - config_.objective;
  }
  /// Whole-run error rate as a fraction of the error budget (1.0 = the
  /// entire budget is gone); 0 when no requests were recorded.
  [[nodiscard]] double budget_consumed() const noexcept;

 private:
  struct Bucket {
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
  };

  /// Grows buckets_ so the bucket containing `now` exists.
  void roll_to(Milliseconds now);

  SloConfig config_;
  std::vector<Bucket> buckets_;  ///< bucket b covers [b*width, (b+1)*width)
  std::uint64_t total_good_ = 0;
  std::uint64_t total_bad_ = 0;
  bool firing_ = false;
  std::uint64_t fired_ = 0;
  std::vector<SloAlert> alerts_;
};

}  // namespace spacecdn::obs
