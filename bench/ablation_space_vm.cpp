// Ablation: Space VMs -- replicated stateful services on successive
// satellites (paper section 5, Space VMs).  Sweeps the state-delta size and
// sync cadence and reports migration downtime and ISL traffic.
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "lsn/handover.hpp"
#include "sim/runner.hpp"
#include "spacecdn/space_vm.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_space_vm";
  options.title = "Ablation: Space VM state replication across satellites";
  options.paper_ref = "Bose et al., HotNets '24, section 5 (Space VMs)";
  options.default_seed = 16;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  const orbit::WalkerConstellation& shell = runner.world().constellation();
  const geo::GeoPoint area = data::location(data::city("Buenos Aires"));
  const Milliseconds window = Milliseconds::from_minutes(60.0);

  // The handover pattern the VM must survive.
  const lsn::HandoverTracker tracker(shell);
  const auto handovers = tracker.analyze(area, Milliseconds{0.0}, window);
  std::cout << "service area: Buenos Aires; " << handovers.handovers
            << " handovers/hour, mean dwell "
            << ConsoleTable::format_fixed(handovers.mean_dwell.value() / 60000.0, 1)
            << " min\n\n";

  ConsoleTable table({"state delta (MB)", "sync every (s)", "migrations",
                      "mean switchover (ms)", "worst (ms)", "sync traffic (GB/h)",
                      "continuity"});
  for (const double delta_mb : {20.0, 80.0, 200.0}) {
    for (const double sync_s : {2.0, 5.0, 15.0}) {
      space::VmConfig cfg;
      cfg.state_delta = Megabytes{delta_mb};
      cfg.sync_interval = Milliseconds::from_seconds(sync_s);
      const space::SpaceVmOrchestrator orchestrator(shell, cfg);
      // Each config re-runs the same seeded hour so rows differ only by config.
      des::Rng rng(runner.seed());
      const auto report = orchestrator.run(area, Milliseconds{0.0}, window, rng);
      runner.checksum().add(report.mean_switchover.value());
      runner.checksum().add(report.continuity);
      table.add_row({ConsoleTable::format_fixed(delta_mb, 0),
                     ConsoleTable::format_fixed(sync_s, 0),
                     std::to_string(report.migrations),
                     ConsoleTable::format_fixed(report.mean_switchover.value(), 1),
                     ConsoleTable::format_fixed(report.worst_switchover.value(), 1),
                     ConsoleTable::format_fixed(report.sync_traffic.value() / 1000.0, 1),
                     ConsoleTable::format_fixed(report.continuity * 100.0, 3) + "%"});
    }
  }
  table.render(std::cout);

  std::cout << "\nExpected shape: with <100 MB deltas (the paper's estimate), "
               "switchovers stay in the tens-to-hundreds of milliseconds over "
               "multi-Gbps ISLs -- 'seamless operations' -- while sync traffic "
               "scales with delta size and cadence.\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
