// Ablation: per-subscriber Starlink throughput vs cell load and hour of day
// (the oversubscription dynamics behind the AIM dataset's speed columns).
#include <iostream>

#include "bench_util.hpp"
#include "des/stats.hpp"
#include "lsn/cell_capacity.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_cell_load";
  options.title = "Ablation: cell capacity vs subscriber density and hour";
  options.paper_ref = "speed-test substrate (AIM download/upload columns)";
  options.default_seed = 19;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  des::Rng rng = runner.rng();
  const long samples_per_cell = runner.get("samples", 4000L);
  ConsoleTable table({"subscribers/cell", "hour", "active users", "utilisation",
                      "expected Mbps", "median Mbps", "p10 Mbps"});
  for (const double subscribers : {100.0, 300.0, 800.0}) {
    for (const double hour : {4.0, 12.0, 20.5}) {
      lsn::CellConfig cfg;
      cfg.subscribers = subscribers;
      const lsn::CellLoadModel model(cfg);
      des::SampleSet samples;
      for (long i = 0; i < samples_per_cell; ++i) {
        samples.add(model.sample_throughput(hour, rng).value());
        runner.checksum().add(samples.raw().back());
      }
      table.add_row({ConsoleTable::format_fixed(subscribers, 0),
                     ConsoleTable::format_fixed(hour, 1),
                     ConsoleTable::format_fixed(model.active_users(hour), 1),
                     ConsoleTable::format_fixed(model.utilization(hour) * 100.0, 0) + "%",
                     ConsoleTable::format_fixed(model.expected_throughput(hour).value(),
                                                1),
                     ConsoleTable::format_fixed(samples.median(), 1),
                     ConsoleTable::format_fixed(samples.quantile(0.1), 1)});
    }
  }
  table.render(std::cout);

  std::cout << "\nExpected shape: lightly-loaded cells pin users at the "
               "terminal cap all day; dense cells collapse to a fraction of it "
               "during the evening peak -- the dispersion the AIM speed "
               "columns show.\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
