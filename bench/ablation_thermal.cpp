// Ablation: thermal-aware duty-cycle scheduling vs the paper's random
// first cut (section 5: temperature must remain below 30 C; "intelligent
// request scheduling" mitigates overheating).
#include <iostream>

#include "bench_util.hpp"
#include "des/random.hpp"
#include "sim/runner.hpp"
#include "spacecdn/thermal.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_thermal";
  options.title =
      "Ablation: thermal duty-cycle scheduling (random vs coolest-first)";
  options.paper_ref = "Bose et al., HotNets '24, section 5 (thermal feasibility)";
  options.default_seed = 13;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  const auto kFleet =
      static_cast<std::uint32_t>(runner.world().constellation().size());
  constexpr std::uint32_t kSlots = 96;  // 24 h of 15-minute slots
  const Milliseconds slot = Milliseconds::from_minutes(15.0);

  ConsoleTable table({"target duty", "policy", "violation sat-slots", "peak temp (C)",
                      "achieved duty", "shortfall slots"});
  for (const double fraction : {0.3, 0.5, 0.8}) {
    for (const auto policy : {space::ThermalScheduler::Policy::kRandom,
                              space::ThermalScheduler::Policy::kCoolestFirst}) {
      space::ThermalModel model(kFleet, {});
      const space::ThermalScheduler scheduler(policy);
      // Each (duty, policy) cell replays the same seeded day.
      des::Rng rng(runner.seed());
      const auto report =
          run_thermal_schedule(model, scheduler, fraction, kSlots, slot, rng);
      runner.checksum().add(report.peak_temperature_c);
      runner.checksum().add(report.mean_served_fraction);
      table.add_row(
          {ConsoleTable::format_fixed(fraction * 100.0, 0) + "%",
           policy == space::ThermalScheduler::Policy::kRandom ? "random"
                                                              : "coolest-first",
           std::to_string(report.violation_slot_count),
           ConsoleTable::format_fixed(report.peak_temperature_c, 1),
           ConsoleTable::format_fixed(report.mean_served_fraction * 100.0, 1) + "%",
           std::to_string(report.total_shortfall)});
    }
  }
  table.render(std::cout);

  std::cout << "\nExpected shape: random scheduling re-picks already-hot "
               "satellites and racks up >30 C satellite-slots at high duty; "
               "coolest-first rotates duty and keeps the peak under the "
               "ceiling until the duty target exceeds the thermally "
               "sustainable fraction (then shortfall appears instead of "
               "violations).\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
