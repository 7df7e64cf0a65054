#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace spacecdn::obs {

SloTracker::SloTracker(SloConfig config) : config_(config) {
  SPACECDN_EXPECT(config_.bucket.value() > 0.0,
                  "slo tracker: bucket width must be positive");
  SPACECDN_EXPECT(config_.objective > 0.0 && config_.objective < 1.0,
                  "slo tracker: objective must be in (0, 1)");
  SPACECDN_EXPECT(config_.burn_threshold > 0.0,
                  "slo tracker: burn threshold must be positive");
}

void SloTracker::roll_to(Milliseconds now) {
  const auto index =
      static_cast<std::size_t>(std::floor(now.value() / config_.bucket.value()));
  if (index >= buckets_.size()) buckets_.resize(index + 1);
}

void SloTracker::record(Milliseconds now, bool good) {
  roll_to(now);
  const auto index =
      static_cast<std::size_t>(std::floor(now.value() / config_.bucket.value()));
  if (good) {
    ++buckets_[index].good;
    ++total_good_;
  } else {
    ++buckets_[index].bad;
    ++total_bad_;
  }
}

double SloTracker::burn_rate(Milliseconds now, Milliseconds window) const {
  const double width = config_.bucket.value();
  // Trailing window at bucket granularity: the `span` buckets ending at the
  // bucket boundary at-or-before `now` (evaluations run on boundaries).
  const auto end = static_cast<std::size_t>(std::ceil(now.value() / width));
  const auto span = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(window.value() / width)));
  const std::size_t begin = end > span ? end - span : 0;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  for (std::size_t b = begin; b < end && b < buckets_.size(); ++b) {
    good += buckets_[b].good;
    bad += buckets_[b].bad;
  }
  const std::uint64_t total = good + bad;
  if (total == 0) return 0.0;
  const double error_rate = static_cast<double>(bad) / static_cast<double>(total);
  return error_rate / error_budget();
}

void SloTracker::evaluate(Milliseconds now) {
  roll_to(now);
  const double short_burn = burn_rate(now, config_.short_window);
  const double long_burn = burn_rate(now, config_.long_window);
  const bool should_fire = short_burn >= config_.burn_threshold &&
                           long_burn >= config_.burn_threshold;
  if (should_fire == firing_) return;
  firing_ = should_fire;
  if (should_fire) ++fired_;
  alerts_.push_back(SloAlert{now, should_fire, short_burn, long_burn});
}

double SloTracker::budget_consumed() const noexcept {
  const std::uint64_t total = total_good_ + total_bad_;
  if (total == 0) return 0.0;
  const double error_rate =
      static_cast<double>(total_bad_) / static_cast<double>(total);
  return error_rate / error_budget();
}

}  // namespace spacecdn::obs
