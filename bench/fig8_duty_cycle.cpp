// Figure 8: SpaceCDN latencies when only 30%, 50%, 80% of satellites
// duty-cycle as caches (the rest relaying), against the median terrestrial
// ISP-to-CDN latency.
//
// Paper's claim: ">= 50% of satellites caching at a time keeps SpaceCDN
// competitive with terrestrial ISP-CDN latencies."
#include <iostream>

#include "bench_util.hpp"
#include "measurement/analysis.hpp"
#include "sim/runner.hpp"
#include "spacecdn/duty_cycle.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "fig8_duty_cycle";
  options.title = "Figure 8: duty-cycled satellite caches (30% / 50% / 80%)";
  options.paper_ref = "Bose et al., HotNets '24, Figure 8";
  options.default_seed = 8;
  options.defaults.tests_per_city = 10;  // terrestrial reference campaign
  sim::Runner runner(argc, argv, options);
  runner.banner();

  lsn::StarlinkNetwork& network = runner.world().network();
  space::SatelliteFleet& fleet = runner.world().fleet();
  des::Rng rng = runner.rng();

  const std::vector<geo::GeoPoint> clients = runner.world().client_points();

  std::vector<std::string> labels;
  std::vector<des::SampleSet> sets;
  for (const double fraction : {0.8, 0.5, 0.3}) {
    space::DutyCycleConfig cfg;
    cfg.cache_fraction = fraction;
    space::DutyCycleSimulation sim(network, fleet, cfg);
    sets.push_back(sim.run(clients, 4, 8, rng));
    for (const double v : sets.back().raw()) runner.checksum().add(v);
    labels.push_back(ConsoleTable::format_fixed(fraction * 100.0, 0) + "% caching");
  }

  // Terrestrial reference line from the AIM campaign.
  const measurement::AimAnalysis analysis(runner.world().aim().run());
  const double terrestrial_median =
      analysis.idle_rtts(measurement::IspType::kTerrestrial).median();

  std::vector<const des::SampleSet*> series;
  for (const auto& s : sets) series.push_back(&s);
  bench::print_box_table(labels, series, "ms");

  std::cout << "\nTerrestrial ISP-to-CDN median latency (vertical line in the "
               "paper's figure): "
            << ConsoleTable::format_fixed(terrestrial_median, 1) << " ms\n\n";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const bool competitive = sets[i].median() <= terrestrial_median * 1.3;
    std::cout << "  " << labels[i] << ": median "
              << ConsoleTable::format_fixed(sets[i].median(), 1) << " ms -> "
              << (competitive ? "competitive" : "not competitive")
              << " with terrestrial\n";
  }
  std::cout << "Paper's shape: 50% and 80% competitive; 30% visibly worse.\n";

  runner.record("terrestrial_median_ms", terrestrial_median);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    runner.record(labels[i], sets[i].median());
  }
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
