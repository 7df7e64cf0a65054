// Ablation: jump-hash placement map vs re-place-everything under churn.
//
// The acceptance experiment of the placement engine (DESIGN.md, "Placement
// engine").  Three placement policies run sim::run_churn_cycle over the
// shared 24 h MTBF x MTTR grid (the one ablation_churn sweeps) with the
// map-directed tier (ii) and the delta-mode RepairDaemon:
//
//   baseline  membership-aware naive recompute (replicas evenly spaced over
//             the *live* satellite list) -- the re-place-everything policy;
//             every liveness flip renumbers nearly every assignment.
//   jump      jump consistent hashing over the full id space with
//             deterministic re-probing: one flip moves O(1/N) of objects.
//   jump-ec   jump placement of 4+2 erasure-coded fragments (one satellite
//             each); a read needs any 4 live fragments.
//
// Reported per point: fetch availability, p99 client latency, and the
// headline metric -- repair gigabytes moved over the 24 h cycle.  A quality
// table (hit distance to the holders a read needs, per-satellite load skew)
// covers the static half of placement quality, DAOS pl_bench style.
//
// Acceptance (CI-gated): at MTBF 6 h / MTTR 30 min the jump policy must move
// >= 5x fewer bytes than baseline at no-worse availability, and identical
// seeds must reproduce rows bit-for-bit across --threads.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "sim/churn.hpp"
#include "sim/runner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

/// Larger synthetic id universe for the static quality metrics, so skew
/// estimates are not dominated by small-sample noise.
constexpr std::uint64_t kQualityCatalog = 20'000;
constexpr std::uint32_t kQualityProbes = 4000;

const std::vector<space::PlacementPolicy> kPolicies{
    space::PlacementPolicy::kBaseline, space::PlacementPolicy::kJump,
    space::PlacementPolicy::kJumpEc};

space::PlacementMapConfig map_config(space::PlacementPolicy policy,
                                     space::ReplicaDiversity diversity) {
  return {.policy = policy, .replicas = 4, .diversity = diversity, .ec = {4, 2}};
}

/// Repair traffic over the 24 h cycle, the headline metric.
double moved_gb(const sim::ChurnCycleResult& r) {
  return r.repair.bytes_moved_mb / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "ablation_placement_map";
  options.title = "Ablation: jump-hash placement vs re-place-everything under churn";
  options.paper_ref = "placement engine, DESIGN.md (DAOS-style placement maps; "
                      "MSR replica placement; Edge-of-the-Earth replication)";
  options.default_seed = 410;
  sim::Runner runner(argc, argv, options);
  runner.banner();
  const std::size_t threads = runner.threads();
  const std::uint64_t catalog_seed =
      static_cast<std::uint64_t>(runner.get("catalog-seed", 90L));
  const space::ReplicaDiversity diversity =
      space::parse_replica_diversity(runner.spec().replica_diversity);

  // --- static placement quality (full membership, no churn) ---
  const orbit::WalkerConstellation& constellation = runner.world().constellation();
  std::cout << "replica diversity: " << space::to_string(diversity) << "\n\n";
  ConsoleTable quality({"policy", "hops mean", "hops p99", "hops max", "load mean",
                        "load p99", "skew p99/mean"});
  for (const auto policy : kPolicies) {
    const space::PlacementMap map(constellation, map_config(policy, diversity));
    des::Rng probe_rng(des::mix_seed(runner.seed(), 999));
    const auto hops = map.analyze(kQualityProbes, kQualityCatalog, probe_rng);
    const auto skew = map.load_skew(kQualityCatalog);
    quality.add_row({std::string(space::to_string(policy)),
                     ConsoleTable::format_fixed(hops.mean_hops, 2),
                     ConsoleTable::format_fixed(hops.p99_hops, 1),
                     std::to_string(hops.max_hops),
                     ConsoleTable::format_fixed(skew.mean, 1),
                     ConsoleTable::format_fixed(skew.p99, 1),
                     ConsoleTable::format_fixed(skew.p99_over_mean(), 3)});
    for (const double v : {hops.mean_hops, hops.p99_hops,
                           static_cast<double>(hops.max_hops), skew.mean, skew.p99,
                           skew.p99_over_mean()}) {
      runner.checksum().add(v);
    }
  }
  quality.render(std::cout);

  // --- 24 h churn grid (the ablation_churn MTBF x MTTR sweep) ---
  const auto& sweep = sim::kChurnGrid;
  // Job layout: policy-major over the grid; the final job reruns
  // jump @ (6 h, 30 min) as the cross-worker reproducibility witness.
  const std::size_t jobs_per_policy = sweep.size();
  const std::size_t rerun_job = kPolicies.size() * jobs_per_policy;
  const std::size_t accept_job = 1 * jobs_per_policy + 1;  // jump @ {6, 30}

  std::cout << "\nsweep threads: " << threads << "\n\n";
  const sim::World& world = runner.world();
  std::vector<sim::ChurnCycleResult> results(rerun_job + 1);
  runner.pool().parallel_for(results.size(), [&](std::size_t i) {
    const std::size_t job = i < rerun_job ? i : accept_job;
    const auto policy = kPolicies[job / jobs_per_policy];
    const auto& point = sweep[job % jobs_per_policy];
    results[i] = sim::run_churn_cycle(world, map_config(policy, diversity),
                                      sim::TierTwo::kMap, point.mtbf(), point.mttr(),
                                      runner.seed(), catalog_seed);
  });

  ConsoleTable table({"policy", "MTBF (h)", "MTTR (min)", "availability", "p99 (ms)",
                      "moved (GB)", "moved copies", "evicted", "sat fails",
                      "cache crashes"});
  CsvWriter csv(runner.csv(),
                {"policy", "mtbf_hours", "mttr_minutes", "availability", "p99_ms",
                 "bytes_moved_gb", "moved", "evicted_stale", "satellite_failures",
                 "cache_crashes"});
  for (std::size_t i = 0; i < rerun_job; ++i) {
    const auto policy = kPolicies[i / jobs_per_policy];
    const auto& point = sweep[i % jobs_per_policy];
    const auto& r = results[i];
    for (const double v : {r.availability, r.p99_ms, moved_gb(r),
                           static_cast<double>(r.repair.moved),
                           static_cast<double>(r.repair.evicted_stale),
                           static_cast<double>(r.churn.satellite_failures),
                           static_cast<double>(r.churn.cache_crashes)}) {
      runner.checksum().add(v);
    }
    table.add_row({std::string(space::to_string(policy)),
                   ConsoleTable::format_fixed(point.mtbf_hours, 0),
                   ConsoleTable::format_fixed(point.mttr_minutes, 0),
                   ConsoleTable::format_fixed(100.0 * r.availability, 2) + "%",
                   ConsoleTable::format_fixed(r.p99_ms, 1),
                   ConsoleTable::format_fixed(moved_gb(r), 1),
                   std::to_string(r.repair.moved), std::to_string(r.repair.evicted_stale),
                   std::to_string(r.churn.satellite_failures),
                   std::to_string(r.churn.cache_crashes)});
    csv.row({std::string(space::to_string(policy)),
             ConsoleTable::format_fixed(point.mtbf_hours, 0),
             ConsoleTable::format_fixed(point.mttr_minutes, 0),
             std::to_string(r.availability), std::to_string(r.p99_ms),
             std::to_string(moved_gb(r)), std::to_string(r.repair.moved),
             std::to_string(r.repair.evicted_stale),
             std::to_string(r.churn.satellite_failures),
             std::to_string(r.churn.cache_crashes)});
  }
  std::cout << "\n";
  table.render(std::cout);

  // Acceptance: at the harshest standard point (MTBF 6 h, MTTR 30 min) the
  // jump map must move >= 5x fewer bytes than re-place-everything at
  // no-worse availability, and identical seeds must reproduce the row
  // bit-for-bit even across different pool workers.
  const auto& baseline = results[0 * jobs_per_policy + 1];
  const auto& jump = results[accept_job];
  const auto& rerun = results[rerun_job];
  const double ratio =
      moved_gb(jump) > 0.0 ? moved_gb(baseline) / moved_gb(jump) : 0.0;
  const bool moves_less = ratio >= 5.0;
  const bool no_worse = jump.availability >= baseline.availability;
  std::cout << "\nAcceptance (MTBF 6 h, MTTR 30 min): baseline moved "
            << ConsoleTable::format_fixed(moved_gb(baseline), 1) << " GB, jump "
            << ConsoleTable::format_fixed(moved_gb(jump), 1) << " GB ("
            << ConsoleTable::format_fixed(ratio, 1) << "x) "
            << (moves_less ? "[pass >= 5x]" : "[FAIL < 5x]") << "; availability "
            << ConsoleTable::format_fixed(100.0 * baseline.availability, 2) << "% -> "
            << ConsoleTable::format_fixed(100.0 * jump.availability, 2) << "% "
            << (no_worse ? "[pass no-worse]" : "[FAIL worse]")
            << "; seed-reproducible: " << (rerun == jump ? "yes" : "NO") << "\n";

  std::cout << "\nExpected shape: baseline repair volume scales with the churn "
               "rate times the whole catalog (every liveness flip renumbers "
               "the live list), while jump and jump-ec move only the failed "
               "satellites' share -- an order of magnitude less -- and jump-ec "
               "pays (k+m)/k storage instead of 4 full copies.\n";
  std::cout << "determinism checksum: " << runner.checksum().hex()
            << " (bit-identical across --threads)\n";
  runner.record("bytes_moved_ratio", ratio);
  runner.record("availability_baseline", baseline.availability);
  runner.record("availability_jump", jump.availability);
  return runner.finish(moves_less && no_worse && rerun == jump);
}
