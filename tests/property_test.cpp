// Property-based tests: parameterized sweeps over randomized inputs and
// configuration grids, checking invariants rather than point values.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "cdn/cache.hpp"
#include "cdn/popularity.hpp"
#include "des/random.hpp"
#include "geo/distance.hpp"
#include "geo/visibility.hpp"
#include "net/graph.hpp"
#include "orbit/walker.hpp"
#include "spacecdn/placement_map.hpp"

namespace spacecdn {
namespace {

// ---------------------------------------------------------------- geometry

class GreatCircleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreatCircleProperty, MetricAxioms) {
  des::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const geo::GeoPoint a{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0), 0.0};
    const geo::GeoPoint b{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0), 0.0};
    const geo::GeoPoint c{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0), 0.0};
    const double ab = geo::great_circle_distance(a, b).value();
    const double ba = geo::great_circle_distance(b, a).value();
    const double ac = geo::great_circle_distance(a, c).value();
    const double cb = geo::great_circle_distance(c, b).value();
    EXPECT_NEAR(ab, ba, 1e-6);                      // symmetry
    EXPECT_GE(ab, 0.0);                             // non-negativity
    EXPECT_LE(ab, geo::kPi * geo::kEarthRadiusKm + 1e-6);  // bounded
    EXPECT_LE(ab, ac + cb + 1e-6);                  // triangle inequality
  }
}

TEST_P(GreatCircleProperty, DestinationRoundTrip) {
  des::Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    // Stay away from the poles where bearings degenerate.
    const geo::GeoPoint origin{rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0), 0.0};
    const double bearing = rng.uniform(0.0, 360.0);
    const Kilometers d{rng.uniform(1.0, 5000.0)};
    const geo::GeoPoint dest = geo::destination(origin, bearing, d);
    EXPECT_NEAR(geo::great_circle_distance(origin, dest).value(), d.value(),
                d.value() * 1e-6 + 1e-6);
  }
}

TEST_P(GreatCircleProperty, SphericalEcefRoundTrip) {
  des::Rng rng(GetParam() + 1);
  for (int i = 0; i < 200; ++i) {
    const geo::GeoPoint p{rng.uniform(-89.9, 89.9), rng.uniform(-179.9, 179.9),
                          rng.uniform(0.0, 2000.0)};
    const geo::GeoPoint q = geo::to_geodetic_spherical(geo::to_ecef_spherical(p));
    EXPECT_NEAR(q.lat_deg, p.lat_deg, 1e-9);
    EXPECT_NEAR(q.lon_deg, p.lon_deg, 1e-9);
    EXPECT_NEAR(q.alt_km, p.alt_km, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreatCircleProperty, ::testing::Values(1, 2, 3, 4, 5));

// ----------------------------------------------------------------- Dijkstra

class DijkstraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraProperty, MatchesBruteForceOnRandomGraphs) {
  des::Rng rng(GetParam());
  constexpr std::size_t n = 9;
  net::Graph g(n);
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 1e18));
  for (std::size_t i = 0; i < n; ++i) w[i][i] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.45)) {
        const double weight = rng.uniform(1.0, 20.0);
        g.add_undirected_edge(static_cast<net::NodeId>(i), static_cast<net::NodeId>(j),
                              Milliseconds{weight});
        w[i][j] = w[j][i] = weight;
      }
    }
  }
  // Floyd-Warshall reference.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        w[i][j] = std::min(w[i][j], w[i][k] + w[k][j]);
      }
    }
  }
  for (net::NodeId src = 0; src < n; ++src) {
    const auto dist = net::shortest_distances(g, src);
    for (std::size_t j = 0; j < n; ++j) {
      if (w[src][j] >= 1e17) {
        EXPECT_TRUE(std::isinf(dist[j].value()));
      } else {
        EXPECT_NEAR(dist[j].value(), w[src][j], 1e-9);
      }
    }
  }
}

TEST_P(DijkstraProperty, PathTotalEqualsEdgeSum) {
  des::Rng rng(GetParam() + 100);
  net::Graph g(12);
  for (int e = 0; e < 30; ++e) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, 11));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, 11));
    if (a != b) g.add_undirected_edge(a, b, Milliseconds{rng.uniform(0.5, 10.0)});
  }
  for (int q = 0; q < 20; ++q) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 11));
    const auto t = static_cast<net::NodeId>(rng.uniform_int(0, 11));
    const auto path = net::shortest_path(g, s, t);
    if (!path) continue;
    double sum = 0.0;
    for (std::size_t i = 1; i < path->nodes.size(); ++i) {
      double best = 1e18;
      for (const auto& edge : g.neighbors(path->nodes[i - 1])) {
        if (edge.to == path->nodes[i]) best = std::min(best, edge.weight.value());
      }
      sum += best;
    }
    EXPECT_NEAR(path->total.value(), sum, 1e-9);
    EXPECT_EQ(path->nodes.front(), s);
    EXPECT_EQ(path->nodes.back(), t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraProperty, ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------------------- caches

class CacheProperty
    : public ::testing::TestWithParam<std::tuple<cdn::CachePolicy, std::uint64_t>> {};

TEST_P(CacheProperty, InvariantsUnderRandomWorkload) {
  const auto [policy, seed] = GetParam();
  des::Rng rng(seed);
  const auto cache = cdn::make_cache(policy, Megabytes{50.0});

  std::uint64_t inserted = 0;
  for (int op = 0; op < 5000; ++op) {
    const cdn::ContentId id = rng.uniform_int(0, 60);
    const Milliseconds now{static_cast<double>(op)};
    if (rng.chance(0.5)) {
      const cdn::ContentItem item{id, Megabytes{rng.uniform(0.5, 8.0)},
                                  data::Region::kEurope};
      if (cache->insert(item, now)) ++inserted;
    } else if (rng.chance(0.1)) {
      (void)cache->erase(id);
    } else {
      const bool hit = cache->access(id, now);
      EXPECT_EQ(hit, cache->contains(id));
    }
    // Invariant: never exceed capacity; used is non-negative.
    EXPECT_LE(cache->used().value(), 50.0 + 1e-9);
    EXPECT_GE(cache->used().value(), -1e-9);
  }
  const auto& stats = cache->stats();
  EXPECT_EQ(stats.hits + stats.misses > 0, true);
  EXPECT_LE(stats.evictions, stats.insertions);
  EXPECT_GT(inserted, 0u);
}

TEST_P(CacheProperty, AccessAfterInsertAlwaysHits) {
  const auto [policy, seed] = GetParam();
  des::Rng rng(seed + 7);
  const auto cache = cdn::make_cache(policy, Megabytes{100.0});
  for (int i = 0; i < 300; ++i) {
    const cdn::ContentId id = rng.uniform_int(0, 1000000);
    const cdn::ContentItem item{id, Megabytes{1.0}, data::Region::kAsia};
    ASSERT_TRUE(cache->insert(item, Milliseconds{0.0}));
    EXPECT_TRUE(cache->access(id, Milliseconds{0.0}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CacheProperty,
    ::testing::Combine(::testing::Values(cdn::CachePolicy::kLru, cdn::CachePolicy::kLfu,
                                         cdn::CachePolicy::kFifo),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      return std::string(cdn::to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------------------ walker

struct WalkerCase {
  std::uint32_t planes;
  std::uint32_t sats;
  std::uint32_t phasing;
};

class WalkerProperty : public ::testing::TestWithParam<WalkerCase> {};

TEST_P(WalkerProperty, StructureInvariants) {
  const auto [planes, sats, phasing] = GetParam();
  const orbit::WalkerDesign design{planes, sats, 53.0, Kilometers{550.0}, phasing};
  const orbit::WalkerConstellation c(design);
  EXPECT_EQ(c.size(), planes * sats);

  // Every satellite's orbit has the inclination and altitude of the shell.
  for (std::uint32_t id = 0; id < c.size(); ++id) {
    EXPECT_DOUBLE_EQ(c.orbit(id).inclination_deg(), 53.0);
    EXPECT_DOUBLE_EQ(c.orbit(id).altitude().value(), 550.0);
  }

  // Neighbour lists are valid and self-free; intra-plane links symmetric.
  for (std::uint32_t id = 0; id < c.size(); ++id) {
    for (std::uint32_t n : c.grid_neighbors(id)) {
      EXPECT_LT(n, c.size());
      EXPECT_NE(n, id);
    }
  }
}

TEST_P(WalkerProperty, AllSatellitesAtOrbitRadius) {
  const auto [planes, sats, phasing] = GetParam();
  const orbit::WalkerDesign design{planes, sats, 53.0, Kilometers{550.0}, phasing};
  const orbit::WalkerConstellation c(design);
  const auto positions = c.positions_ecef(Milliseconds::from_minutes(17.0));
  for (const auto& p : positions) {
    EXPECT_NEAR(geo::norm(p).value(), geo::kEarthRadiusKm + 550.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, WalkerProperty,
                         ::testing::Values(WalkerCase{4, 4, 0}, WalkerCase{8, 8, 3},
                                           WalkerCase{12, 6, 5}, WalkerCase{72, 22, 39}),
                         [](const auto& info) {
                           std::string name = "p";
                           name += std::to_string(info.param.planes);
                           name += "s";
                           name += std::to_string(info.param.sats);
                           name += "f";
                           name += std::to_string(info.param.phasing);
                           return name;
                         });

// ----------------------------------------------------------------- placement

class PlacementProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PlacementProperty, HopBoundShrinksWithCopies) {
  const std::uint32_t copies = GetParam();
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  const space::PlacementMap placement(
      c, {.policy = space::PlacementPolicy::kPerPlane, .replicas = copies});
  des::Rng rng(copies);
  const auto stats = placement.analyze(1000, 200, rng);
  // Within a plane of 22 satellites and k evenly spaced copies, the
  // intra-plane distance alone is bounded by ceil(22 / (2k)); cross-plane
  // search can only shrink it.
  const std::uint32_t bound = (22u + 2 * copies - 1) / (2 * copies);
  EXPECT_LE(stats.max_hops, bound);
}

INSTANTIATE_TEST_SUITE_P(Copies, PlacementProperty, ::testing::Values(1, 2, 4, 8, 11));

// ---------------------------------------------------------------- popularity

class PopularityProperty : public ::testing::TestWithParam<double> {};

TEST_P(PopularityProperty, PermutationBijective) {
  const double share = GetParam();
  cdn::PopularityConfig cfg;
  cfg.global_share = share;
  const cdn::RegionalPopularity pop(500, cfg);
  for (const auto region : {data::Region::kEurope, data::Region::kAfrica,
                            data::Region::kLatinAmerica}) {
    std::vector<bool> seen(500, false);
    for (std::uint64_t rank = 1; rank <= 500; ++rank) {
      const auto id = pop.object_at_rank(region, rank);
      ASSERT_LT(id, 500u);
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
      EXPECT_EQ(pop.rank_of(region, id), rank);
    }
  }
}

TEST_P(PopularityProperty, OverlapGrowsWithGlobalShare) {
  const double share = GetParam();
  cdn::PopularityConfig low;
  low.global_share = 0.0;
  cdn::PopularityConfig cfg;
  cfg.global_share = share;
  const cdn::RegionalPopularity base(2000, low);
  const cdn::RegionalPopularity mixed(2000, cfg);
  const double o_base =
      base.top_k_overlap(data::Region::kEurope, data::Region::kAsia, 200);
  const double o_mixed =
      mixed.top_k_overlap(data::Region::kEurope, data::Region::kAsia, 200);
  EXPECT_GE(o_mixed + 1e-9, o_base);
}

INSTANTIATE_TEST_SUITE_P(Shares, PopularityProperty,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9));

// --------------------------------------------------------------- elevation

class VisibilityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VisibilityProperty, CoverageMatchesElevationComputation) {
  // For random ground points and satellites: is_visible(e_min) agrees with
  // comparing the computed elevation against e_min.
  des::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const geo::GeoPoint ground{rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0), 0.0};
    const geo::GeoPoint satpt{rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0),
                              550.0};
    const geo::Ecef sat = geo::to_ecef_spherical(satpt);
    const double elev = geo::elevation_angle_deg(ground, sat);
    for (double mask : {5.0, 25.0, 40.0}) {
      EXPECT_EQ(geo::is_visible(ground, sat, mask), elev >= mask);
    }
    // Slant range is at least the altitude and at most the horizon bound.
    const double range = geo::slant_range(ground, sat).value();
    EXPECT_GE(range, 550.0 - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisibilityProperty, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace spacecdn
