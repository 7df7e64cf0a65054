// Quickstart: build the Starlink Shell-1 model, place content on the
// constellation, and fetch it through the three-tier SpaceCDN router.
//
//   $ ./examples/quickstart
//
// Walks through the library's core objects in ~60 lines of user code.
#include <iostream>

#include "cdn/deployment.hpp"
#include "data/datasets.hpp"
#include "sim/world.hpp"
#include "spacecdn/placement_map.hpp"
#include "spacecdn/router.hpp"

int main() {
  using namespace spacecdn;

  // 1. The LEO ISP: Starlink Shell 1 (72 planes x 22 satellites at 550 km),
  //    ground stations, PoPs, and the bent-pipe router -- all built by the
  //    scenario engine's default world.
  sim::World world;
  lsn::StarlinkNetwork& network = world.network();
  std::cout << "constellation: " << network.constellation().size() << " satellites, "
            << network.ground().gateway_count() << " gateways, "
            << network.ground().pop_count() << " PoPs\n";

  // 2. A client in Maputo, Mozambique -- the paper's flagship vantage point.
  const auto& city = data::city("Maputo");
  const auto& country = data::country(city.country_code);
  const geo::GeoPoint client = data::location(city);

  // Today's path: bent pipe to the assigned PoP (Frankfurt!), then on to the
  // anycast CDN.
  const auto route = network.router().route_to_pop(client, country);
  if (route) {
    std::cout << "bent-pipe route: serving sat " << route->serving_satellite << " --["
              << route->isl_hops << " ISL hops]--> gateway '"
              << network.ground().gateway(route->gateway).name << "' -> PoP '"
              << network.ground().pop(route->pop).key << "', baseline RTT "
              << network.baseline_rtt(*route) << "\n";
  }

  // 3. SpaceCDN: give every satellite a cache and replicate one object four
  //    times per orbital plane (the paper's 5-hop-reachability recipe).
  space::SatelliteFleet& fleet = world.fleet();
  const space::PlacementMap placement(
      network.constellation(),
      {.policy = space::PlacementPolicy::kPerPlane, .replicas = 4});

  const cdn::ContentItem video{/*id=*/1, Megabytes{250.0}, data::Region::kAfrica};
  placement.place(fleet, video, Milliseconds{0.0});
  std::cout << "placed " << placement.replicas(video.id).size() << " replicas of object "
            << video.id << " across the constellation\n";

  // 4. Fetch through the three-tier router (overhead satellite -> ISL
  //    neighbourhood -> ground CDN).
  cdn::CdnDeployment& ground_cdn = world.ground_cdn();
  space::SpaceCdnRouter router(network, fleet, ground_cdn);
  des::Rng rng(1);

  const auto result = router.fetch(client, country, video, rng, Milliseconds{0.0});
  if (result) {
    std::cout << "SpaceCDN fetch: tier=" << space::to_string(result->tier)
              << ", isl_hops=" << result->isl_hops << ", rtt=" << result->rtt << "\n";
    std::cout << "(compare with the " << network.baseline_rtt(*route)
              << " bent-pipe baseline above)\n";
  }
  return 0;
}
