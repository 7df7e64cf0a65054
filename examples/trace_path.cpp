// Synthetic traceroute: see the PoP-centric Starlink data path the way the
// measurement community discovered it.
//
//   $ ./examples/trace_path                      # Maputo -> Frankfurt
//   $ ./examples/trace_path --city="Nairobi" --dest="Johannesburg"
//   $ ./examples/trace_path --waterfall          # + SpaceCDN fetch trace
#include <iostream>

#include "cdn/content.hpp"
#include "data/datasets.hpp"
#include "measurement/traceroute.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/router.hpp"
#include "util/table.hpp"

namespace {

void print(const char* title, const spacecdn::measurement::Traceroute& trace) {
  using namespace spacecdn;
  std::cout << "\n" << title << "\n";
  ConsoleTable table({"ttl", "kind", "router", "rtt (ms)"});
  for (const auto& hop : trace.hops) {
    table.add_row({std::to_string(hop.ttl),
                   std::string(measurement::to_string(hop.kind)),
                   hop.responds ? hop.label : "* * * (no response)",
                   hop.responds ? ConsoleTable::format_fixed(hop.rtt.value(), 1) : "-"});
  }
  table.render(std::cout);
}

/// --waterfall: run three SpaceCDN fetches (one per tier) through the
/// instrumented router and render each request's span tree.
void print_fetch_waterfalls(spacecdn::sim::World& world,
                            const spacecdn::data::CityInfo& client_city,
                            spacecdn::des::Rng rng) {
  using namespace spacecdn;
  const lsn::StarlinkNetwork& network = world.network();
  space::SatelliteFleet fleet =
      world.make_fleet(space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment& ground = world.ground_cdn();
  space::RouterConfig rcfg;
  rcfg.admit_on_fetch = false;  // keep each demo fetch on its own tier
  space::SpaceCdnRouter router(network, fleet, ground, rcfg);

  obs::TelemetrySession telemetry;
  telemetry.tracer().set_retain(1);

  const geo::GeoPoint client = data::location(client_city);
  const auto& country = data::country(client_city.country_code);
  const auto serving = network.snapshot().serving_satellite(
      client, network.config().user_min_elevation_deg);
  if (!serving) {
    std::cout << "\n(no satellite coverage over " << client_city.name
              << "; skipping fetch waterfalls)\n";
    return;
  }

  // Tier (i): on the overhead satellite.  Tier (ii): on a grid neighbour.
  // Tier (iii): nowhere in space, so the bent pipe serves.
  const cdn::ContentItem tier1{1, Megabytes{10.0}, country.region};
  const cdn::ContentItem tier2{2, Megabytes{10.0}, country.region};
  const cdn::ContentItem tier3{3, Megabytes{10.0}, country.region};
  (void)fleet.cache(*serving).insert(tier1, Milliseconds{0.0});
  (void)fleet.cache(network.constellation().grid_neighbors(*serving)[2])
      .insert(tier2, Milliseconds{0.0});

  std::cout << "\n=== SpaceCDN fetch waterfalls from " << client_city.name
            << " (simulated ms) ===\n";
  for (const auto& item : {tier1, tier2, tier3}) {
    const auto result = router.fetch(client, country, item, rng, Milliseconds{0.0});
    std::cout << "\n";
    obs::render_waterfall(std::cout, telemetry.tracer().last());
    if (result) {
      std::cout << "served by tier: " << space::to_string(result->tier) << "\n";
    }
  }
}

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "trace_path";
  options.default_seed = 23;
  sim::Runner runner(argc, argv, options);
  const std::string city_name = runner.get("city", std::string("Maputo"));
  const std::string dest_name = runner.get("dest", std::string("Frankfurt"));
  const bool waterfall = runner.get("waterfall", false);
  const std::uint64_t waterfall_seed =
      static_cast<std::uint64_t>(runner.get("waterfall-seed", 24L));

  const auto& client = data::city(city_name);
  const geo::GeoPoint destination = data::location(data::city(dest_name));

  lsn::StarlinkNetwork& network = runner.world().network();
  const measurement::TracerouteSynthesizer synth(network);
  des::Rng rng = runner.rng();

  std::cout << "traceroute from " << client.name << " to " << dest_name << ":\n";
  const auto star = synth.starlink(client, destination, rng);
  print("=== over Starlink ===", star);
  const std::string inferred = synth.infer_pop(star, client);
  if (!inferred.empty()) {
    const auto& pop = data::pop(inferred);
    std::cout << "inferred PoP: " << pop.city << " (" << pop.country_code
              << ") -- the subscriber's public IP geolocates here, not in "
              << data::country(client.country_code).name << "\n";
  }

  const auto terr = synth.terrestrial(client, destination, rng);
  print("=== over a terrestrial ISP ===", terr);

  if (waterfall) {
    print_fetch_waterfalls(runner.world(), client, des::Rng(waterfall_seed));
  }
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
