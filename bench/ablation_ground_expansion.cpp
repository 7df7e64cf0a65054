// What-if: expanding Starlink's African ground segment vs deploying
// SpaceCDN (paper section 5, "Expansion of LSN ground infrastructure").
//
// The paper argues that even with steady gateway/PoP expansion "we only
// foresee the best case latency to hover around 20-30 ms", while SpaceCDN
// "may match or even outperform terrestrial alternatives" without the
// ground build-out.  This bench adds hypothetical gateways+PoPs in Nairobi,
// Johannesburg and Lagos(-east) and measures what that buys the paper's
// worst-hit countries, next to what satellite caching buys.
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "geo/propagation.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

/// Builds a Starlink model whose ground segment carries extra African
/// gateways and PoPs, with the ISL-country assignments redirected to the
/// new Nairobi PoP.
struct ExpandedNetwork {
  std::vector<data::GroundStationInfo> gateways;
  std::vector<data::PopInfo> pops;
};

ExpandedNetwork expanded_infrastructure() {
  ExpandedNetwork out;
  out.gateways.assign(data::ground_stations().begin(), data::ground_stations().end());
  out.pops.assign(data::starlink_pops().begin(), data::starlink_pops().end());
  out.gateways.push_back({"Nairobi KE (hypothetical)", "KE", -1.30, 36.90});
  out.gateways.push_back({"Johannesburg ZA (hypothetical)", "ZA", -26.10, 28.10});
  out.gateways.push_back({"Maputo MZ (hypothetical)", "MZ", -25.90, 32.60});
  out.pops.push_back({"nairobi", "Nairobi", "KE", -1.29, 36.82});
  out.pops.push_back({"johannesburg", "Johannesburg", "ZA", -26.20, 28.05});
  return out;
}

Milliseconds bent_pipe_rtt(const lsn::StarlinkNetwork& base,
                           const lsn::GroundSegment& ground, const data::CityInfo& city,
                           std::string_view pop_key) {
  // Route against a custom ground segment by constructing a router bound to
  // the base network's ISL fabric.
  const lsn::BentPipeRouter router(ground, base.isl());
  data::CountryInfo country = data::country(city.country_code);
  country.assigned_pop = pop_key;
  const auto route = router.route_to_pop(data::location(city), country);
  if (!route) return Milliseconds{-1.0};
  return route->propagation_rtt() + base.access().config().median_overhead_rtt;
}

int run(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "ablation_ground_expansion";
  options.title = "What-if: African ground expansion vs SpaceCDN";
  options.paper_ref = "Bose et al., HotNets '24, section 5 (ground infrastructure)";
  options.default_seed = 25;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  lsn::StarlinkNetwork& network = runner.world().network();
  const lsn::GroundSegment& current_ground = network.ground();
  const auto expanded = expanded_infrastructure();
  const lsn::GroundSegment expanded_ground(expanded.gateways, expanded.pops, {});

  des::Rng rng = runner.rng();
  ConsoleTable table({"city", "today (PoP)", "RTT (ms)", "expanded (PoP)", "RTT (ms)",
                      "SpaceCDN overhead sat (ms)"});
  for (const auto& [city_name, new_pop] :
       std::vector<std::pair<const char*, const char*>>{
           {"Nairobi", "nairobi"},
           {"Maputo", "johannesburg"},
           {"Lusaka", "johannesburg"},
           {"Kigali", "nairobi"}}) {
    const auto& city = data::city(city_name);
    const auto& country = data::country(city.country_code);

    const Milliseconds today =
        bent_pipe_rtt(network, current_ground, city, country.assigned_pop);
    const Milliseconds after = bent_pipe_rtt(network, expanded_ground, city, new_pop);

    // SpaceCDN: content on the overhead satellite.
    const auto serving =
        network.snapshot().serving_satellite(data::location(city), 25.0);
    Milliseconds space{-1.0};
    if (serving) {
      const Milliseconds uplink = geo::propagation_delay(
          network.snapshot().slant_range(data::location(city), *serving),
          geo::Medium::kVacuum);
      space = uplink * 2.0 + Milliseconds{rng.lognormal_median(2.0, 0.3)};
    }

    runner.checksum().add(today.value());
    runner.checksum().add(after.value());
    runner.checksum().add(space.value());
    table.add_row({city_name, std::string(country.assigned_pop),
                   ConsoleTable::format_fixed(today.value(), 1), new_pop,
                   ConsoleTable::format_fixed(after.value(), 1),
                   ConsoleTable::format_fixed(space.value(), 1)});
  }
  table.render(std::cout);

  std::cout << "\nExpected shape: local gateways+PoPs collapse the ISL detour "
               "but bottom out around the ~20-30 ms access floor the paper "
               "predicts; the overhead-satellite fetch goes below it without "
               "any terrestrial construction (and without the multi-year "
               "licensing/land/backhaul programme the paper describes).\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
