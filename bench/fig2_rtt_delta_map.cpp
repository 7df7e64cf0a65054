// Figure 2: per-country delta of median RTT (Starlink minus terrestrial) to
// the most optimal CDN server location, plus the 22 operational PoPs.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "measurement/analysis.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "fig2_rtt_delta_map";
  options.title = "Figure 2: median RTT delta (Starlink - terrestrial) per country";
  options.paper_ref = "Bose et al., HotNets '24, Figure 2";
  options.default_seed = 20240318;  // the AIM campaign epoch
  options.defaults.tests_per_city = 25;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  // Countries shard across the pool; the campaign merges records back in
  // dataset order, so the analysis input -- and the checksum below -- are
  // bit-identical for any --threads value.
  auto records = runner.world().aim().run(runner.pool());
  for (const auto& r : records) {
    runner.checksum().add(r.idle_rtt.value());
    runner.checksum().add(r.loaded_rtt.value());
  }
  std::cout << "campaign threads: " << runner.pool().thread_count() << ", records: "
            << records.size() << ", determinism checksum: " << runner.checksum().hex()
            << "\n";
  const measurement::AimAnalysis analysis(std::move(records));

  struct Delta {
    std::string country;
    std::string region;
    double delta_ms;
  };
  std::vector<Delta> deltas;
  for (const auto& code : analysis.countries()) {
    if (const auto d = analysis.median_delta_ms(code)) {
      const auto& info = data::country(code);
      deltas.push_back({std::string(info.name), std::string(data::to_string(info.region)),
                        *d});
    }
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.delta_ms > b.delta_ms; });

  double max_delta = 0.0;
  for (const auto& d : deltas) max_delta = std::max(max_delta, std::abs(d.delta_ms));

  std::cout << "negative = Starlink faster; positive = terrestrial faster\n\n";
  ConsoleTable table({"Country", "Region", "Delta median RTT (ms)"});
  for (const auto& d : deltas) {
    table.add_row({d.country, d.region, ConsoleTable::format_fixed(d.delta_ms, 1)});
  }
  table.render(std::cout);

  std::cout << "\nCountries measured: " << deltas.size()
            << " (paper: 55 countries with Starlink coverage)\n";

  int starlink_faster = 0;
  for (const auto& d : deltas) starlink_faster += d.delta_ms < 0 ? 1 : 0;
  std::cout << "Starlink faster in " << starlink_faster
            << " countries (paper: only where terrestrial infrastructure is "
               "under-developed, e.g. Nigeria)\n";

  std::cout << "\nThe 22 operational Starlink PoPs plotted on the paper's map:\n";
  ConsoleTable pops({"key", "city", "country", "lat", "lon"});
  for (const auto& p : data::starlink_pops()) {
    pops.add_row({std::string(p.key), std::string(p.city), std::string(p.country_code),
                  ConsoleTable::format_fixed(p.lat_deg, 2),
                  ConsoleTable::format_fixed(p.lon_deg, 2)});
  }
  pops.render(std::cout);

  runner.record("countries_measured", static_cast<double>(deltas.size()));
  runner.record("starlink_faster_countries", static_cast<double>(starlink_faster));
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
