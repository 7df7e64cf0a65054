// Integration tests: end-to-end scenarios across the full stack, matching
// the paper's headline claims.
#include <gtest/gtest.h>

#include "cdn/deployment.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "des/simulator.hpp"
#include "measurement/aim.hpp"
#include "measurement/analysis.hpp"
#include "measurement/web.hpp"
#include "sim/world.hpp"
#include "spacecdn/duty_cycle.hpp"
#include "spacecdn/placement_map.hpp"
#include "spacecdn/router.hpp"

namespace spacecdn {
namespace {

// Read-only Shell-1 substrate, shared with every other fixture in the
// process via the scenario engine (built once, memoized).
const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

TEST(EndToEnd, TerrestrialBeatsStarlinkToCdnsAlmostEverywhere) {
  // Section 3.2: "Terrestrial connections almost always achieve lower
  // latencies to CDNs, typically around 50 ms less than Starlink."
  measurement::AimConfig cfg;
  cfg.tests_per_city = 10;
  measurement::AimCampaign campaign(shell1(), cfg);
  std::vector<measurement::SpeedTestRecord> records;
  for (const char* cc : {"GB", "DE", "ES", "US", "BR", "JP", "AU", "CY", "LT", "GT"}) {
    auto r = campaign.run_country(data::country(cc));
    records.insert(records.end(), r.begin(), r.end());
  }
  const measurement::AimAnalysis analysis(std::move(records));
  int terrestrial_wins = 0, total = 0;
  des::OnlineSummary deltas;
  for (const auto& country : analysis.countries()) {
    if (const auto delta = analysis.median_delta_ms(country)) {
      ++total;
      if (*delta > 0) ++terrestrial_wins;
      deltas.add(*delta);
    }
  }
  EXPECT_EQ(terrestrial_wins, total);
  EXPECT_GT(deltas.mean(), 20.0);
  EXPECT_LT(deltas.mean(), 90.0);
}

TEST(EndToEnd, AfricanIslCountriesSeeLargestDegradation) {
  // Section 3.2: African countries served via ISLs see 120-150 ms extra.
  measurement::AimConfig cfg;
  cfg.tests_per_city = 10;
  measurement::AimCampaign campaign(shell1(), cfg);
  std::vector<measurement::SpeedTestRecord> records;
  for (const char* cc : {"MZ", "GB"}) {
    auto r = campaign.run_country(data::country(cc));
    records.insert(records.end(), r.begin(), r.end());
  }
  const measurement::AimAnalysis analysis(std::move(records));
  const auto mz = analysis.median_delta_ms("MZ");
  const auto gb = analysis.median_delta_ms("GB");
  ASSERT_TRUE(mz && gb);
  EXPECT_GT(*mz, 90.0);
  EXPECT_GT(*mz, 2.0 * *gb);
}

TEST(EndToEnd, MaputoCaseStudyMatchesFigure3) {
  // Figure 3: over Starlink, Maputo's best site is Frankfurt (~160 ms) and
  // African sites are worse (~250 ms); over terrestrial, Maputo itself wins
  // (~20 ms) and Johannesburg is within ~70 ms.
  measurement::AimConfig cfg;
  cfg.tests_per_city = 60;
  measurement::AimCampaign campaign(shell1(), cfg);
  const measurement::AimAnalysis analysis(campaign.run_country(data::country("MZ")));

  const auto star_opt =
      analysis.optimal_site("Maputo", measurement::IspType::kStarlink);
  ASSERT_TRUE(star_opt.has_value());
  // Best Starlink mapping lands in Europe, not Africa.
  const auto& star_site = data::cdn_site(star_opt->site);
  EXPECT_EQ(data::country(star_site.country_code).region, data::Region::kEurope);

  const auto terr_opt =
      analysis.optimal_site("Maputo", measurement::IspType::kTerrestrial);
  ASSERT_TRUE(terr_opt.has_value());
  EXPECT_EQ(terr_opt->site, "MPM");
  EXPECT_LT(terr_opt->median_idle_rtt.value(), 25.0);

  // Over Starlink, reaching an African site costs more than the European
  // optimum (the "skips the nearby CDN" effect).
  for (const auto& site : analysis.site_stats("Maputo", measurement::IspType::kStarlink)) {
    if (site.site == "JNB" || site.site == "CPT") {
      EXPECT_GT(site.median_idle_rtt.value(), star_opt->median_idle_rtt.value() + 30.0);
    }
  }
}

TEST(EndToEnd, SpaceCdnWithinFiveHopsIsCompetitive) {
  // Figure 7's claim: content within <=5 ISL hops makes SpaceCDN comparable
  // to terrestrial CDN access; even 10 hops halves today's Starlink latency.
  const auto& net = shell1();
  const orbit::WalkerConstellation& cons = net.constellation();
  space::SatelliteFleet fleet(cons.size(), space::FleetConfig{Megabytes{1e6},
                                                              cdn::CachePolicy::kLru});
  const space::PlacementMap placement(
      cons, {.policy = space::PlacementPolicy::kPerPlane, .replicas = 4});
  des::Rng rng(1);

  // Place one object and fetch it from many cities.
  const cdn::ContentItem obj{0, Megabytes{20.0}, data::Region::kEurope};
  placement.place(fleet, obj, Milliseconds{0.0});

  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground, {.max_isl_hops = 5,
                                                    .admit_on_fetch = false});

  des::SampleSet space_rtts;
  for (const auto& city : data::cities()) {
    if (std::abs(city.lat_deg) > 56.0) continue;  // stay in Shell 1 coverage
    const auto& country = data::country(city.country_code);
    const auto result =
        router.fetch(data::location(city), country, obj, rng, Milliseconds{0.0});
    if (!result) continue;
    ASSERT_NE(result->tier, space::FetchTier::kGround) << city.name;
    EXPECT_LE(result->isl_hops, 5u);
    space_rtts.add(result->rtt.value());
  }
  ASSERT_GT(space_rtts.size(), 50u);
  // Median fetch latency lands in the terrestrial-CDN ballpark.
  EXPECT_LT(space_rtts.median(), 50.0);
}

TEST(EndToEnd, DutyCycleFiftyPercentStaysCompetitive) {
  // Figure 8: with >=50% of satellites caching, SpaceCDN stays competitive
  // with the terrestrial median.
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1e6}, cdn::CachePolicy::kLru});
  des::Rng rng(2);
  std::vector<geo::GeoPoint> clients;
  for (const char* name : {"London", "Berlin", "Madrid", "New York", "Tokyo",
                           "Sao Paulo", "Sydney", "Nairobi"}) {
    clients.push_back(data::location(data::city(name)));
  }

  space::DutyCycleConfig half;
  half.cache_fraction = 0.5;
  space::DutyCycleSimulation sim50(net, fleet, half);
  const auto rtts50 = sim50.run(clients, 5, 4, rng);

  space::DutyCycleConfig low;
  low.cache_fraction = 0.3;
  space::DutyCycleSimulation sim30(net, fleet, low);
  const auto rtts30 = sim30.run(clients, 5, 4, rng);

  EXPECT_LT(rtts50.median(), 55.0);               // competitive with terrestrial
  EXPECT_LE(rtts50.median(), rtts30.median());    // more caches never hurt
}

TEST(EndToEnd, PullThroughCachingConvergesToSatelliteHits) {
  // Repeated Zipf requests from one region migrate the working set into the
  // constellation: the ground tier fades out.
  const auto& net = shell1();
  des::Rng rng(3);
  const cdn::ContentCatalog catalog({.object_count = 300}, rng);
  const cdn::RegionalPopularity popularity(300, {});
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1e6}, cdn::CachePolicy::kLru});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  const geo::GeoPoint client = data::location(data::city("Nairobi"));
  const auto& country = data::country("KE");
  int ground_first_half = 0, ground_second_half = 0;
  const int n = 600;
  for (int i = 0; i < n; ++i) {
    const auto id = popularity.sample(data::Region::kAfrica, rng);
    const auto result =
        router.fetch(client, country, catalog.item(id), rng, Milliseconds{i * 100.0});
    ASSERT_TRUE(result.has_value());
    if (result->tier == space::FetchTier::kGround) {
      (i < n / 2 ? ground_first_half : ground_second_half) += 1;
    }
  }
  EXPECT_LT(ground_second_half, ground_first_half / 2);
}

TEST(EndToEnd, SimulatorDrivesHandoversAcrossEpochs) {
  // The DES engine advancing a StarlinkNetwork through reconfiguration
  // epochs changes serving satellites (handover) without breaking routing.
  lsn::StarlinkNetwork net;
  des::Simulator sim;
  const geo::GeoPoint client = data::location(data::city("London"));
  std::vector<std::uint32_t> serving;
  for (int epoch = 0; epoch < 4; ++epoch) {
    sim.schedule(Milliseconds::from_minutes(2.0 * epoch), [&net, &sim, &serving, client] {
      net.set_time(sim.now());
      const auto route = net.router().route_to_pop(client, data::country("GB"));
      ASSERT_TRUE(route.has_value());
      serving.push_back(route->serving_satellite);
    });
  }
  sim.run();
  ASSERT_EQ(serving.size(), 4u);
  // At least one handover across 6 minutes (satellites pass in 5-10 min).
  bool changed = false;
  for (std::size_t i = 1; i < serving.size(); ++i) changed |= serving[i] != serving[0];
  EXPECT_TRUE(changed);
}

TEST(EndToEnd, WebAndAimAgreeOnWinners) {
  // HRT differences (NetMet) and idle RTT differences (AIM) must agree in
  // sign per country -- both derive from the same path asymmetry.
  measurement::AimConfig acfg;
  acfg.tests_per_city = 10;
  measurement::AimCampaign aim(shell1(), acfg);
  measurement::NetMetCampaign web(shell1(), {.fetches_per_page = 3});
  for (const char* cc : {"GB", "NG"}) {
    const auto& country = data::country(cc);
    const measurement::AimAnalysis analysis(aim.run_country(country));
    const auto delta = analysis.median_delta_ms(cc);
    ASSERT_TRUE(delta.has_value());

    const auto records = web.run_country(country);
    des::SampleSet star, terr;
    for (const auto& r : records) {
      (r.isp == measurement::IspType::kStarlink ? star : terr)
          .add(r.http_response.value());
    }
    const double web_delta = star.median() - terr.median();
    EXPECT_EQ(*delta > 0, web_delta > 0) << cc;
  }
}

}  // namespace
}  // namespace spacecdn
