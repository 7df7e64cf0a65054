// Ablation: SpaceCDN under continuous churn (dynamic fault injection).
//
// Where ablation_failures studies *static* laser-terminal failure sets, this
// sweep drives the full self-healing loop of sim::run_churn_cycle (seeded
// fault schedule, incremental fail/recover, retrying tier-escalating
// fetch_resilient, and the RepairDaemon restoring the k-copies-per-plane
// placement after every cache crash) with the paper's per-plane layout and
// BFS tier (ii).  Reported per (MTBF, MTTR) point: fetch availability,
// p50/p99 client latency, retry rate, repair volume, and mean time-to-repair.
//
// Identical seeds produce identical rows (asserted below by re-running the
// acceptance point); the table is also emitted as machine-readable CSV.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "sim/churn.hpp"
#include "sim/runner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_churn";
  options.title = "Ablation: self-healing SpaceCDN under 24 h of churn";
  options.paper_ref = "dynamic fault injection sweep (DESIGN.md, faults/ + resilience)";
  options.default_seed = 400;
  sim::Runner runner(argc, argv, options);
  runner.banner();
  const std::size_t threads = runner.threads();
  const std::uint64_t catalog_seed =
      static_cast<std::uint64_t>(runner.get("catalog-seed", 90L));
  const auto& sweep = sim::kChurnGrid;

  ConsoleTable table({"MTBF (h)", "MTTR (min)", "availability", "p50 (ms)", "p99 (ms)",
                      "mean retries", "re-repl", "ground refills", "mean TTR (min)",
                      "sat fails", "cache crashes"});
  CsvWriter csv(runner.csv(), {"mtbf_hours", "mttr_minutes", "availability", "p50_ms",
                               "p99_ms", "mean_retries", "re_replicated",
                               "ground_refills", "mean_ttr_min", "satellite_failures",
                               "cache_crashes"});
  std::cout << "sweep threads: " << threads << "\n\n";

  // Each sweep point is a self-contained simulation (own network, fleet,
  // fault schedule, seeded RNGs), so points shard across the pool; index 6
  // is the acceptance rerun of point 1.  Rows are emitted in sweep order
  // after the barrier, keeping the CSV byte-identical to a serial run.
  const sim::World& world = runner.world();
  std::vector<sim::ChurnCycleResult> results(sweep.size() + 1);
  runner.pool().parallel_for(results.size(), [&](std::size_t i) {
    const auto& point = sweep[i < sweep.size() ? i : 1];
    results[i] = sim::run_churn_cycle(
        world, {.policy = space::PlacementPolicy::kPerPlane}, sim::TierTwo::kBfs,
        point.mtbf(), point.mttr(), runner.seed(), catalog_seed);
  });

  // Every printed column feeds the checksum, so the repair and churn
  // counters are pinned along with the latency columns.
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& point = sweep[i];
    const auto& r = results[i];
    const std::vector<double> row{point.mtbf_hours,
                                  point.mttr_minutes,
                                  r.availability,
                                  r.p50_ms,
                                  r.p99_ms,
                                  r.mean_retries,
                                  static_cast<double>(r.repair.re_replicated),
                                  static_cast<double>(r.repair.ground_refills),
                                  r.mean_ttr_min,
                                  static_cast<double>(r.churn.satellite_failures),
                                  static_cast<double>(r.churn.cache_crashes)};
    for (const double v : row) runner.checksum().add(v);
    csv.row_numeric(row);
    table.add_row({ConsoleTable::format_fixed(point.mtbf_hours, 0),
                   ConsoleTable::format_fixed(point.mttr_minutes, 0),
                   ConsoleTable::format_fixed(100.0 * r.availability, 2) + "%",
                   ConsoleTable::format_fixed(r.p50_ms, 1),
                   ConsoleTable::format_fixed(r.p99_ms, 1),
                   ConsoleTable::format_fixed(r.mean_retries, 3),
                   std::to_string(r.repair.re_replicated),
                   std::to_string(r.repair.ground_refills),
                   ConsoleTable::format_fixed(r.mean_ttr_min, 1),
                   std::to_string(r.churn.satellite_failures),
                   std::to_string(r.churn.cache_crashes)});
  }
  std::cout << "\n";
  table.render(std::cout);

  // Acceptance + reproducibility: the harshest standard point (MTBF 6 h,
  // MTTR 30 min) must sustain >= 99% availability, and identical seeds must
  // reproduce the row bit-for-bit -- even when the two runs executed on
  // different pool workers.
  const auto& accept = results[1];
  const auto& rerun = results[sweep.size()];
  std::cout << "\nAcceptance (MTBF 6 h, MTTR 30 min): availability "
            << ConsoleTable::format_fixed(100.0 * accept.availability, 2) << "% "
            << (accept.availability >= 0.99 ? "[pass >= 99%]" : "[FAIL < 99%]")
            << ", seed-reproducible: " << (rerun == accept ? "yes" : "NO") << "\n";

  std::cout << "\nExpected shape: availability stays high across the sweep -- "
               "retries route around outages and the repair daemon rebuilds "
               "lost replicas -- while p99 and retry rate grow as MTBF falls "
               "and MTTR rises, and time-to-repair tracks the audit cadence "
               "plus the crash-recovery MTTR.\n";
  runner.record("availability_accept", accept.availability);
  return runner.finish(accept.availability >= 0.99 && rerun == accept);
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
