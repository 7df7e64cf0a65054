#include "sim/churn.hpp"

#include <vector>

#include "cdn/deployment.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "des/simulator.hpp"
#include "des/stats.hpp"
#include "faults/schedule.hpp"
#include "spacecdn/router.hpp"

namespace spacecdn::sim {

namespace {

constexpr Milliseconds kHorizon = Milliseconds::from_minutes(24.0 * 60.0);
constexpr int kFetches = 2000;
constexpr std::uint64_t kCatalogSize = 200;

/// Fault timeline: satellite outages and cache crashes follow the swept
/// (MTBF, MTTR); laser flaps and gateway outages stay at fixed rates.
faults::ChurnConfig churn_config(Milliseconds mtbf, Milliseconds mttr) {
  faults::ChurnConfig churn;
  churn.horizon = kHorizon;
  churn.satellite = {mtbf, mttr};
  churn.laser_terminal = {Milliseconds::from_minutes(12.0 * 60.0),
                          Milliseconds::from_minutes(10.0)};
  churn.ground_station = {Milliseconds::from_minutes(24.0 * 60.0),
                          Milliseconds::from_minutes(60.0)};
  churn.cache_node = {mtbf * 2.0, mttr};
  return churn;
}

}  // namespace

ChurnCycleResult run_churn_cycle(const World& world,
                                 const space::PlacementMapConfig& placement,
                                 TierTwo lookup, Milliseconds mtbf, Milliseconds mttr,
                                 std::uint64_t seed, std::uint64_t catalog_seed) {
  const auto network_ptr =
      world.make_network(lsn::starlink_preset(world.spec().constellation));
  lsn::StarlinkNetwork& network = *network_ptr;
  des::Rng catalog_rng(catalog_seed);
  const cdn::ContentCatalog catalog({.object_count = kCatalogSize}, catalog_rng);
  const cdn::RegionalPopularity popularity(catalog.size(), {});
  space::SatelliteFleet fleet(network.constellation().size(), world.fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(network, fleet, ground,
                               {.resilience = {.transient_loss = 0.01}});

  // Pre-seed the whole catalog; the repair daemon guards this layout.
  space::PlacementMap map(network.constellation(), placement);
  if (lookup == TierTwo::kMap) router.set_placement_map(&map);
  std::vector<cdn::ContentItem> items;
  items.reserve(catalog.size());
  for (cdn::ContentId id = 0; id < catalog.size(); ++id) {
    items.push_back(catalog.item(id));
    map.place(fleet, items.back(), Milliseconds{0.0});
  }

  des::Rng fault_rng(seed);
  const auto schedule = faults::FaultSchedule::generate(
      churn_config(mtbf, mttr),
      {.satellites = network.constellation().size(),
       .ground_stations = static_cast<std::uint32_t>(network.ground().gateway_count())},
      fault_rng);

  des::Simulator sim;
  space::ChurnController controller(network, fleet);
  controller.set_membership(&map.membership());
  space::RepairDaemon daemon(fleet, map, items, {});
  schedule.install(sim, [&](const faults::FaultEvent& event) {
    controller.apply(event);
    if (event.component == faults::Component::kCacheNode &&
        event.transition == faults::Transition::kFail) {
      daemon.note_crash(event.target, event.at);
    }
  });
  daemon.install(sim, kHorizon);

  std::vector<const data::CityInfo*> clients;
  for (const char* name :
       {"London", "Sao Paulo", "Tokyo", "Nairobi", "Denver", "Maputo", "Kigali",
        "Lusaka"}) {
    clients.push_back(&data::city(name));
  }

  des::Rng workload_rng(seed + 1);
  std::uint64_t total = 0, ok = 0, retries = 0;
  des::SampleSet latency;
  const Milliseconds step{kHorizon.value() / kFetches};
  for (int i = 1; i <= kFetches; ++i) {
    sim.schedule_at(step * static_cast<double>(i), [&] {
      const auto* city = clients[workload_rng.uniform_int(0, clients.size() - 1)];
      const auto& country = data::country(city->country_code);
      const auto id = popularity.sample(country.region, workload_rng);
      const auto result = router.fetch_resilient(
          data::location(*city), country, catalog.item(id), workload_rng, sim.now());
      ++total;
      retries += result.retries;
      if (result.success) {
        ++ok;
        latency.add(result.total_latency.value());
      }
    });
  }

  sim.run();

  ChurnCycleResult out;
  out.availability = total == 0 ? 0.0 : static_cast<double>(ok) / total;
  out.p50_ms = latency.empty() ? 0.0 : latency.quantile(0.50);
  out.p99_ms = latency.empty() ? 0.0 : latency.quantile(0.99);
  out.mean_retries = total == 0 ? 0.0 : static_cast<double>(retries) / total;
  out.mean_ttr_min =
      daemon.time_to_repair().empty() ? 0.0 : daemon.time_to_repair().mean() / 60'000.0;
  out.repair = daemon.totals();
  out.churn = controller.counters();
  return out;
}

}  // namespace spacecdn::sim
