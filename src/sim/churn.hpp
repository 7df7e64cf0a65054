// Scenario engine: the 24 h self-healing churn cycle.
//
// One run drives the whole self-healing loop on a fresh, unshared copy of
// the world's network, frozen at the epoch so the numbers isolate churn
// dynamics from orbital motion: a seeded FaultSchedule fails and recovers
// satellites, laser terminals, gateways and cache processes; the
// ChurnController applies each event to the live network (and mirrors cache
// liveness into the placement map's membership); clients fetch through the
// retrying, tier-escalating fetch_resilient path; and the RepairDaemon
// audits the placement map every five minutes and restores what crashes
// destroyed.  bench/ablation_churn and bench/ablation_placement_map are two
// tables over this one function and its shared (MTBF, MTTR) grid.
#pragma once

#include <array>
#include <cstdint>

#include "sim/world.hpp"
#include "spacecdn/placement_map.hpp"
#include "spacecdn/resilience.hpp"

namespace spacecdn::sim {

/// How the router finds a tier-(ii) replica during the cycle.
enum class TierTwo {
  kBfs,  ///< BFS content discovery over the ISL ring (the published path)
  kMap,  ///< holders straight from the placement map (map-directed lookup)
};

/// One (MTBF, MTTR) point of the churn grid.  The swept MTBF/MTTR drive
/// satellite outages, and cache crashes at twice the MTBF.
struct ChurnPoint {
  double mtbf_hours;
  double mttr_minutes;

  [[nodiscard]] Milliseconds mtbf() const {
    return Milliseconds::from_minutes(mtbf_hours * 60.0);
  }
  [[nodiscard]] Milliseconds mttr() const {
    return Milliseconds::from_minutes(mttr_minutes);
  }
};

/// The grid both churn benches sweep; index 1 (MTBF 6 h, MTTR 30 min) is the
/// harshest standard point, where their acceptance checks sit.
inline constexpr std::array<ChurnPoint, 6> kChurnGrid{
    {{6.0, 15.0}, {6.0, 30.0}, {12.0, 15.0}, {12.0, 30.0}, {24.0, 15.0}, {24.0, 30.0}}};

/// Outcome of one 24 h churn cycle.
struct ChurnCycleResult {
  double availability = 0.0;  ///< fraction of fetches that succeeded
  double p50_ms = 0.0;        ///< client-observed total latency
  double p99_ms = 0.0;
  double mean_retries = 0.0;  ///< retries per fetch
  double mean_ttr_min = 0.0;  ///< cache crash to fully repaired
  space::RepairReport repair;              ///< the daemon's running totals
  space::ChurnController::Counters churn;  ///< applied fault transitions

  friend bool operator==(const ChurnCycleResult&, const ChurnCycleResult&) = default;
};

/// Runs one cycle: the catalog is drawn from `catalog_seed` and placed with
/// `placement`; the fault schedule draws from `seed` and the client workload
/// from `seed + 1`.  Laser flaps and gateway outages stay at fixed
/// paper-scale background rates, so every grid point sees the same
/// background churn classes.  Identical arguments give identical results on
/// any thread; the call touches no state of `world` beyond its spec.
[[nodiscard]] ChurnCycleResult run_churn_cycle(const World& world,
                                               const space::PlacementMapConfig& placement,
                                               TierTwo lookup, Milliseconds mtbf,
                                               Milliseconds mttr, std::uint64_t seed,
                                               std::uint64_t catalog_seed);

}  // namespace spacecdn::sim
