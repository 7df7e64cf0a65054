// Ablation: ISL fabric resilience under laser-terminal failures.
//
// Optical terminals fail routinely at constellation scale; this sweep
// measures what fraction of satellite pairs stay connected, how much paths
// stretch, and what it does to SpaceCDN duty-cycle latencies.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "sim/runner.hpp"
#include "spacecdn/duty_cycle.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_failures";
  options.title = "Ablation: ISL fabric under laser-terminal failures";
  options.paper_ref = "resilience sweep (DESIGN.md, failure injection)";
  options.default_seed = 26;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  des::Rng rng = runner.rng();
  const std::uint64_t duty_seed =
      static_cast<std::uint64_t>(runner.get("duty-seed", 27L));
  const orbit::WalkerConstellation& shell = runner.world().constellation();
  const orbit::EphemerisSnapshot snapshot(shell, Milliseconds{0.0});

  std::vector<geo::GeoPoint> clients;
  for (const char* name : {"London", "Sao Paulo", "Tokyo", "Nairobi", "Denver"}) {
    clients.push_back(data::location(data::city(name)));
  }

  ConsoleTable table({"failed fraction", "healthy reachable", "mean path (ms)",
                      "p99 path (ms)", "duty-50% median RTT (ms)"});
  CsvWriter csv(runner.csv(), {"failed_fraction", "healthy_reachable", "mean_path_ms",
                               "p99_path_ms", "duty50_median_rtt_ms"});
  for (const double fraction : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    const auto count = static_cast<std::uint32_t>(fraction * shell.size());
    const auto failed = rng.sample_without_replacement(shell.size(), count);
    const lsn::IslNetwork isl(shell, snapshot, {}, failed);

    // Reachability + path-length statistics from a sample of sources.
    des::SampleSet paths;
    std::uint64_t reachable = 0, pairs = 0;
    for (std::uint32_t src = 3; src < shell.size(); src += 97) {
      if (isl.is_failed(src)) continue;
      const auto dist = isl.latencies_from(src);
      for (std::uint32_t dst = 0; dst < shell.size(); dst += 13) {
        if (dst == src || isl.is_failed(dst)) continue;
        ++pairs;
        if (!std::isinf(dist[dst].value())) {
          ++reachable;
          paths.add(dist[dst].value());
        }
      }
    }

    // Duty-cycle latency on a degraded constellation.
    lsn::StarlinkConfig net_cfg =
        lsn::starlink_preset(runner.spec().constellation);
    net_cfg.failed_satellites = failed;
    const auto network = runner.world().make_network(net_cfg);
    space::SatelliteFleet fleet = runner.world().make_fleet();
    space::DutyCycleConfig duty_cfg;
    duty_cfg.cache_fraction = 0.5;
    space::DutyCycleSimulation sim(*network, fleet, duty_cfg);
    des::Rng duty_rng(duty_seed);
    const auto rtts = sim.run(clients, 4, 4, duty_rng);
    for (const double v : rtts.raw()) runner.checksum().add(v);

    table.add_row({ConsoleTable::format_fixed(fraction * 100.0, 0) + "%",
                   ConsoleTable::format_fixed(100.0 * reachable / pairs, 2) + "%",
                   ConsoleTable::format_fixed(paths.mean(), 1),
                   ConsoleTable::format_fixed(paths.quantile(0.99), 1),
                   rtts.empty() ? "-" : ConsoleTable::format_fixed(rtts.median(), 1)});
    csv.row_numeric({fraction, static_cast<double>(reachable) / pairs, paths.mean(),
                     paths.quantile(0.99), rtts.empty() ? 0.0 : rtts.median()});
  }
  std::cout << "\n";
  table.render(std::cout);

  std::cout << "\nExpected shape: the 4-connected +grid degrades gracefully -- "
               "reachability stays near 100% and paths stretch only mildly "
               "until failures reach tens of percent.\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
