// Tests for the epoch-cached routing engine (net::RoutingCache /
// net::SsspTree), the util::ThreadPool, and the deterministic parallel
// sweeps built on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets.hpp"
#include "des/random.hpp"
#include "lsn/isl_network.hpp"
#include "lsn/starlink.hpp"
#include "measurement/aim.hpp"
#include "net/graph.hpp"
#include "net/routing_cache.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/walker.hpp"
#include "sim/world.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/lookup.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spacecdn {
namespace {

constexpr Milliseconds kNow{0.0};

const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

/// Random connected graph: a spanning chain plus extra random edges.
net::Graph random_graph(des::Rng& rng, std::uint32_t nodes, std::uint32_t extra_edges) {
  net::Graph g(nodes);
  for (std::uint32_t v = 1; v < nodes; ++v) {
    g.add_undirected_edge(v - 1, v, Milliseconds{rng.uniform(1.0, 10.0)});
  }
  for (std::uint32_t e = 0; e < extra_edges; ++e) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    if (a == b) continue;
    g.add_undirected_edge(a, b, Milliseconds{rng.uniform(1.0, 10.0)});
  }
  return g;
}

/// Textbook binary-heap Dijkstra popping in (dist, node) order, parents set
/// on strict improvement only: the reference every SsspTree must equal bit
/// for bit, whatever kernel builds it.
struct ReferenceTree {
  std::vector<double> dist;
  std::vector<net::NodeId> parent;
};

ReferenceTree reference_dijkstra(const net::Graph& g, net::NodeId source) {
  ReferenceTree t{std::vector<double>(g.node_count(), net::kUnreachable),
                  std::vector<net::NodeId>(g.node_count(), source)};
  using Entry = std::pair<double, net::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  t.dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > t.dist[u]) continue;  // stale entry
    for (const net::Edge& e : g.neighbors(u)) {
      const double nd = d + e.weight.value();
      if (nd < t.dist[e.to]) {
        t.dist[e.to] = nd;
        t.parent[e.to] = u;
        heap.push({nd, e.to});
      }
    }
  }
  return t;
}

/// Number of nodes where `tree` differs from the reference in distance,
/// hop count or path, and so in any parent on it (0 when bit-identical).
std::size_t reference_mismatches(const net::SsspTree& tree, const net::Graph& g) {
  const net::NodeId source = tree.source();
  const ReferenceTree ref = reference_dijkstra(g, source);
  std::size_t bad = 0;
  for (net::NodeId v = 0; v < g.node_count(); ++v) {
    bool same = tree.distance(v).value() == ref.dist[v];
    if (same && ref.dist[v] != net::kUnreachable) {
      std::vector<net::NodeId> path{v};
      while (path.back() != source) path.push_back(ref.parent[path.back()]);
      std::reverse(path.begin(), path.end());
      same = tree.path_to(v).nodes == path && tree.hops_to(v) == path.size() - 1;
    }
    if (!same) ++bad;
  }
  return bad;
}

/// Random digraph: a two-way spanning chain (so every node is reachable) plus
/// random one-way and two-way edges, weights drawn by `weight`.
template <typename WeightFn>
net::Graph random_digraph(des::Rng& rng, std::uint32_t nodes, std::uint32_t extra_edges,
                          WeightFn weight) {
  net::Graph g(nodes);
  for (std::uint32_t v = 1; v < nodes; ++v) g.add_undirected_edge(v - 1, v, weight());
  for (std::uint32_t e = 0; e < extra_edges; ++e) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    if (e % 3 == 0) {
      g.add_edge(a, b, weight());  // one-way, self-loops included
    } else if (a != b) {
      g.add_undirected_edge(a, b, weight());
    }
  }
  return g;
}

// ------------------------------------------------------------- SsspTree

TEST(SsspTree, MatchesDirectDijkstraOnRandomGraphs) {
  // Real-valued weights: ties are rare, so this pins distances and the
  // strict-improvement parents against the reference heap.
  des::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const net::Graph g = random_graph(rng, 40, 60);
    const auto src = static_cast<net::NodeId>(rng.uniform_int(0, 39));
    EXPECT_EQ(reference_mismatches(net::SsspTree(g, src), g), 0u) << "trial " << trial;
    const auto direct = net::shortest_distances(g, src);
    const auto ref = reference_dijkstra(g, src);
    for (net::NodeId v = 0; v < direct.size(); ++v) {
      EXPECT_EQ(direct[v].value(), ref.dist[v]) << "trial " << trial;
    }
  }
}

TEST(SsspTree, PathReconstructionMatchesShortestPath) {
  des::Rng rng(12);
  const net::Graph g = random_graph(rng, 30, 40);
  const net::SsspTree tree(g, 0);
  const ReferenceTree ref = reference_dijkstra(g, 0);
  for (net::NodeId v = 0; v < 30; ++v) {
    const auto direct = net::shortest_path(g, 0, v);
    ASSERT_TRUE(direct.has_value());
    std::vector<net::NodeId> expected{v};
    while (expected.back() != 0) expected.push_back(ref.parent[expected.back()]);
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(direct->nodes, expected);
    EXPECT_EQ(direct->total.value(), ref.dist[v]);
    EXPECT_EQ(tree.path_to(v).nodes, expected);
    EXPECT_EQ(tree.hops_to(v), expected.size() - 1);
  }
}

TEST(SsspTree, MatchesReferenceOnTiedZeroAndTinyWeights) {
  // Each family stresses one part of the kernel: small integer weights force
  // exact-distance ties (the (dist, node) parent rule); zero-weight edges
  // and 1e-9 ms edges beside 10 ms ones take the (dist, node)-ordered
  // buckets, where a ring of lightest-edge width would need 1e10 buckets;
  // all-tiny weights keep lightest-edge buckets at a 1e-9 ms width.
  const std::vector<std::pair<std::string, std::function<Milliseconds(des::Rng&)>>>
      families = {
          {"integer 1..4",
           [](des::Rng& r) { return Milliseconds{static_cast<double>(r.uniform_int(1, 4))}; }},
          {"integer 0..3 (zero-weight)",
           [](des::Rng& r) { return Milliseconds{static_cast<double>(r.uniform_int(0, 3))}; }},
          {"1e-9 beside 1..10",
           [](des::Rng& r) {
             return Milliseconds{r.uniform_int(0, 2) == 0 ? 1e-9
                                                          : static_cast<double>(r.uniform_int(1, 10))};
           }},
          {"all tiny",
           [](des::Rng& r) { return Milliseconds{1e-9 * static_cast<double>(r.uniform_int(1, 3))}; }},
      };
  des::Rng rng(17);
  for (const auto& [name, weight] : families) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto nodes = static_cast<std::uint32_t>(rng.uniform_int(2, 60));
      const net::Graph g =
          random_digraph(rng, nodes, nodes * 2, [&rng, &weight] { return weight(rng); });
      const auto src = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
      EXPECT_EQ(reference_mismatches(net::SsspTree(g, src), g), 0u)
          << name << ", trial " << trial;
    }
  }
}

TEST(SsspTree, UnreachableNodesThrowOnReconstruction) {
  net::Graph g(3);
  g.add_undirected_edge(0, 1, Milliseconds{1.0});  // node 2 isolated
  const net::SsspTree tree(g, 0);
  EXPECT_FALSE(tree.reachable(2));
  EXPECT_TRUE(tree.reachable(1));
  EXPECT_THROW((void)tree.hops_to(2), ConfigError);
  EXPECT_THROW((void)tree.path_to(2), ConfigError);
}

/// Drives a seeded fail/recover storm that holds about 9% of satellites
/// failed.  After every step: each graph row must equal a shadow adjacency
/// kept with remove_if/push_back semantics, BFS emission order must equal a
/// textbook queue BFS over the shadow, and the cached tree from a random
/// source must equal the reference heap bit for bit.
void expect_storm_matches_reference(const std::string& preset, std::uint64_t seed,
                                    int steps) {
  const orbit::WalkerConstellation constellation(orbit::multi_shell_preset(preset));
  const orbit::EphemerisSnapshot snapshot(constellation, Milliseconds{0.0});
  lsn::IslNetwork isl(constellation, snapshot);
  const auto n = static_cast<std::uint32_t>(constellation.size());
  // Healthy rows list each satellite's links in the order recover() re-adds them.
  std::vector<std::vector<net::Edge>> shadow(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto row = isl.graph().neighbors(s);
    shadow[s].assign(row.begin(), row.end());
  }
  const auto links = shadow;
  std::vector<std::uint32_t> failed;
  des::Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const bool recover =
        !failed.empty() && (failed.size() >= n / 11 || rng.uniform_int(0, 2) == 0);
    if (recover) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(0, failed.size() - 1));
      const std::uint32_t sat = failed[pick];
      failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(pick));
      isl.recover(sat);
      for (const net::Edge& link : links[sat]) {
        if (std::find(failed.begin(), failed.end(), link.to) != failed.end()) continue;
        shadow[sat].push_back(link);
        shadow[link.to].push_back({sat, link.weight});
      }
    } else {
      const auto sat = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      if (isl.is_failed(sat)) continue;
      failed.push_back(sat);
      isl.fail(sat);
      for (const net::Edge& link : links[sat]) {
        std::erase_if(shadow[sat], [&](const net::Edge& e) { return e.to == link.to; });
        std::erase_if(shadow[link.to], [&](const net::Edge& e) { return e.to == sat; });
      }
    }

    std::size_t bad_rows = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      const auto row = isl.graph().neighbors(s);
      bad_rows += !std::equal(row.begin(), row.end(), shadow[s].begin(), shadow[s].end(),
                              [](const net::Edge& a, const net::Edge& b) {
                                return a.to == b.to && a.weight.value() == b.weight.value();
                              });
    }
    ASSERT_EQ(bad_rows, 0u) << preset << ", step " << step;

    const auto src = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    std::vector<net::HopDistance> bfs;
    std::vector<bool> seen(n, false);
    std::queue<net::HopDistance> frontier;
    seen[src] = true;
    frontier.push({src, 0});
    while (!frontier.empty()) {
      const net::HopDistance cur = frontier.front();
      frontier.pop();
      bfs.push_back(cur);
      if (cur.hops == 6) continue;
      for (const net::Edge& e : shadow[cur.node]) {
        if (!seen[e.to]) {
          seen[e.to] = true;
          frontier.push({e.to, cur.hops + 1});
        }
      }
    }
    const auto within = isl.within_hops(src, 6);
    ASSERT_TRUE(std::equal(within.begin(), within.end(), bfs.begin(), bfs.end(),
                           [](const net::HopDistance& a, const net::HopDistance& b) {
                             return a.node == b.node && a.hops == b.hops;
                           }))
        << preset << ", step " << step;

    ASSERT_EQ(reference_mismatches(*isl.sssp_from(src), isl.graph()), 0u)
        << preset << ", step " << step << ", source " << src;
  }
  EXPECT_FALSE(failed.empty());
}

TEST(SsspTree, MatchesReferenceUnderShell1FaultStorm) {
  expect_storm_matches_reference("shell1", 18, 150);
}

TEST(SsspTree, MatchesReferenceUnderFourShellFaultStorm) {
  expect_storm_matches_reference("starlink-4shell", 19, 60);
}

// --------------------------------------------------------- RoutingCache

TEST(RoutingCache, HitsAfterFirstQueryAndSharesTree) {
  des::Rng rng(13);
  const net::Graph g = random_graph(rng, 20, 20);
  const net::RoutingCache cache(g, 8);
  const auto first = cache.tree(3);
  const auto second = cache.tree(3);
  EXPECT_EQ(first.get(), second.get());  // same memoised tree object
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.cached_sources(), 1u);
}

TEST(RoutingCache, LruBoundEvictsColdestSource) {
  des::Rng rng(14);
  const net::Graph g = random_graph(rng, 20, 20);
  const net::RoutingCache cache(g, 4);
  const auto pinned = cache.tree(0);  // reader keeps its tree alive
  for (net::NodeId src = 1; src < 10; ++src) (void)cache.tree(src);
  EXPECT_LE(cache.cached_sources(), 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
  // The handed-out shared_ptr survives eviction and still answers queries.
  EXPECT_EQ(pinned->distance(0).value(), 0.0);
  // Re-querying an evicted source recomputes the identical tree.
  const auto again = cache.tree(0);
  for (net::NodeId v = 0; v < 20; ++v) {
    EXPECT_EQ(again->distance(v).value(), pinned->distance(v).value());
  }
}

TEST(RoutingCache, InvalidateBumpsEpochAndDropsEntries) {
  des::Rng rng(15);
  const net::Graph g = random_graph(rng, 10, 10);
  net::RoutingCache cache(g, 8);
  (void)cache.tree(1);
  (void)cache.tree(2);
  EXPECT_EQ(cache.cached_sources(), 2u);
  const auto epoch_before = cache.epoch();
  cache.invalidate();
  EXPECT_EQ(cache.epoch(), epoch_before + 1);
  EXPECT_EQ(cache.cached_sources(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  (void)cache.tree(1);
  EXPECT_EQ(cache.stats().misses, 3u);  // recomputed after invalidation
}

TEST(RoutingCache, ConcurrentReadersGetIdenticalDistances) {
  des::Rng rng(16);
  const net::Graph g = random_graph(rng, 60, 90);
  const net::RoutingCache cache(g, 16);  // smaller than the source set: eviction races too
  std::vector<std::vector<Milliseconds>> expected(60);
  for (net::NodeId src = 0; src < 60; ++src) {
    expected[src] = net::shortest_distances(g, src);
  }
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.parallel_for(600, [&](std::size_t i) {
    const auto src = static_cast<net::NodeId>((i * 7) % 60);
    const auto tree = cache.tree(src);
    for (net::NodeId v = 0; v < 60; ++v) {
      if (tree->distance(v).value() != expected[src][v].value()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RoutingCache, ConcurrentMissesEqualSerialTrees) {
  // Four workers miss on one graph at once, each building in its own bucket
  // scratch; a cache smaller than the source set keeps them missing.  The
  // Shell 1 graph takes the lightest-edge buckets, the zero-weight random
  // graph the ordered ones.
  des::Rng rng(21);
  const net::Graph zero_weight = random_digraph(rng, 300, 900, [&rng] {
    return Milliseconds{static_cast<double>(rng.uniform_int(0, 3))};
  });
  for (const net::Graph* g : {&shell1().isl().graph(), &zero_weight}) {
    std::vector<net::SsspTree> serial;
    for (net::NodeId src = 0; src < 48; ++src) serial.emplace_back(*g, src * 5);
    const net::RoutingCache cache(*g, 8);
    ThreadPool pool(4);
    std::atomic<int> mismatches{0};
    pool.parallel_for(192, [&](std::size_t i) {
      const net::SsspTree& expected = serial[(i * 7) % serial.size()];
      const auto tree = cache.tree(expected.source());
      for (net::NodeId v = 0; v < g->node_count(); ++v) {
        const bool same =
            tree->distance(v).value() == expected.distance(v).value() &&
            (!expected.reachable(v) || tree->path_to(v).nodes == expected.path_to(v).nodes);
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(cache.stats().misses, serial.size());
  }
}

// ------------------------------------------- IslNetwork routing engine

TEST(IslRoutingEngine, CachedLatenciesMatchDirectDijkstra) {
  const auto& isl = shell1().isl();
  for (const std::uint32_t src : {0u, 97u, 800u, 1583u}) {
    const auto cached = isl.latencies_from(src);
    const auto direct = net::shortest_distances(isl.graph(), src);
    ASSERT_EQ(cached.size(), direct.size());
    for (std::size_t v = 0; v < direct.size(); ++v) {
      EXPECT_EQ(cached[v].value(), direct[v].value());
    }
  }
}

TEST(IslRoutingEngine, FailRecoverCycleRestoresLatenciesBitIdentically) {
  const lsn::StarlinkNetwork network;
  lsn::IslNetwork isl(network.constellation(), network.snapshot());
  const auto before = isl.latencies_from(10);
  const auto epoch0 = isl.topology_epoch();

  isl.fail(11);
  EXPECT_EQ(isl.topology_epoch(), epoch0 + 1);
  const auto degraded = isl.latencies_from(10);
  const auto degraded_direct = net::shortest_distances(isl.graph(), 10);
  for (std::size_t v = 0; v < degraded.size(); ++v) {
    EXPECT_EQ(degraded[v].value(), degraded_direct[v].value());
  }
  EXPECT_FALSE(std::equal(before.begin(), before.end(), degraded.begin(),
                          [](Milliseconds a, Milliseconds b) {
                            return a.value() == b.value();
                          }));

  isl.recover(11);
  EXPECT_EQ(isl.topology_epoch(), epoch0 + 2);
  const auto after = isl.latencies_from(10);
  for (std::size_t v = 0; v < after.size(); ++v) {
    EXPECT_EQ(after[v].value(), before[v].value());
  }
}

TEST(IslRoutingEngine, AdvanceMatchesFreshlyConstructedNetwork) {
  // advance() rebinds the snapshot in place; a network that lived through
  // set_time must route identically to one built directly at that epoch.
  lsn::StarlinkNetwork survivor;
  survivor.set_time(Milliseconds::from_minutes(8.0));
  survivor.set_time(Milliseconds::from_minutes(16.0));

  lsn::StarlinkNetwork fresh;
  fresh.set_time(Milliseconds::from_minutes(16.0));

  for (const std::uint32_t src : {0u, 500u, 1200u}) {
    const auto a = survivor.isl().latencies_from(src);
    const auto b = fresh.isl().latencies_from(src);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t v = 0; v < a.size(); ++v) {
      EXPECT_EQ(a[v].value(), b[v].value());
    }
  }
}

TEST(IslRoutingEngine, RepeatedQueriesHitTheCache) {
  lsn::StarlinkNetwork network;
  const auto& isl = network.isl();
  (void)isl.latencies_from(42);
  const auto before = isl.routing_cache_stats();
  (void)isl.path_latency(42, 100);
  (void)isl.path_latency(42, 1000);
  (void)isl.latencies_from(42);
  const auto after = isl.routing_cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 3);
}

// ------------------------------------------- Bent-pipe gateway staleness

TEST(BentPipeRouter, SurvivingRouterMatchesFreshAfterAdvance) {
  // Regression: the router's gateway-visibility lists were computed once at
  // construction; after set_time they referred to the previous epoch's
  // geometry.  A surviving router must route exactly like a fresh one.
  lsn::StarlinkNetwork survivor;
  (void)survivor.router().route_to_pop(data::location(data::city("Maputo")),
                                       data::country("MZ"));
  survivor.set_time(Milliseconds::from_minutes(16.0));

  lsn::StarlinkNetwork fresh;
  fresh.set_time(Milliseconds::from_minutes(16.0));

  for (const char* name : {"Maputo", "London", "Denver", "Tokyo"}) {
    const auto& city = data::city(name);
    const auto& country = data::country(city.country_code);
    const auto a = survivor.router().route_to_pop(data::location(city), country);
    const auto b = fresh.router().route_to_pop(data::location(city), country);
    ASSERT_EQ(a.has_value(), b.has_value()) << name;
    if (!a) continue;
    EXPECT_EQ(a->pop, b->pop) << name;
    EXPECT_EQ(a->isl_hops, b->isl_hops) << name;
    EXPECT_EQ(a->one_way_to_pop().value(), b->one_way_to_pop().value()) << name;
  }
}

// ------------------------------------------------- Lookup tie-breaking

TEST(Lookup, PicksLowestLatencyReplicaWithinMinimalHopRing) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  const std::uint32_t origin = 0;

  // Place the object on EVERY satellite exactly 2 hops out; the lookup must
  // return the cheapest of them, not the first one BFS emits.
  const auto ring = net.isl().within_hops(origin, 2);
  const auto tree = net.isl().sssp_from(origin);
  double best_latency = net::kUnreachable;
  std::uint32_t holders = 0;
  for (const auto& hd : ring) {
    if (hd.hops != 2) continue;
    (void)fleet.cache(hd.node).insert(
        cdn::ContentItem{9, Megabytes{1.0}, data::Region::kEurope}, kNow);
    best_latency = std::min(best_latency, tree->distance(hd.node).value());
    ++holders;
  }
  ASSERT_GE(holders, 2u) << "need competing candidates for a tie-break test";

  const auto found = space::find_replica(net.isl(), fleet, origin, 9, 10);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->hops, 2u);
  EXPECT_EQ(found->isl_latency.value(), best_latency);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(visits.size(), [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 6);
  pool.parallel_for(0, [&](std::size_t) { sum.fetch_add(1000); });
  EXPECT_EQ(sum.load(), 6);  // zero-count sweep is a no-op
}

TEST(ThreadPool, SubmitAndWaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(pool.thread_count(), 2u);
}

TEST(ThreadPool, ResolveThreadsHonoursExplicitRequest) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);  // hardware concurrency
  EXPECT_THROW((void)ThreadPool::resolve_threads(-1), ConfigError);
}

TEST(MixSeed, DecorrelatesStreams) {
  EXPECT_NE(des::mix_seed(7, 0), des::mix_seed(7, 1));
  EXPECT_NE(des::mix_seed(7, 0), des::mix_seed(8, 0));
  EXPECT_EQ(des::mix_seed(7, 3), des::mix_seed(7, 3));  // pure function
}

// --------------------------------------- Deterministic parallel sweeps

TEST(ParallelSweep, AimCampaignSerialAndParallelAreBitIdentical) {
  measurement::AimConfig cfg;
  cfg.tests_per_city = 3;
  measurement::AimCampaign campaign(shell1(), cfg);
  const auto serial = campaign.run();

  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto parallel = campaign.run(pool);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].country_code, serial[i].country_code);
      EXPECT_EQ(parallel[i].city, serial[i].city);
      EXPECT_EQ(parallel[i].cdn_site, serial[i].cdn_site);
      EXPECT_EQ(parallel[i].idle_rtt.value(), serial[i].idle_rtt.value());
      EXPECT_EQ(parallel[i].loaded_rtt.value(), serial[i].loaded_rtt.value());
      EXPECT_EQ(parallel[i].download.value(), serial[i].download.value());
    }
  }
}

TEST(ParallelSweep, RepeatedRunsAreReproducible) {
  // The campaign is a pure function of its config: no hidden sequential RNG
  // state leaks between runs.
  measurement::AimConfig cfg;
  cfg.tests_per_city = 2;
  measurement::AimCampaign campaign(shell1(), cfg);
  const auto first = campaign.run_country(data::country("DE"));
  const auto second = campaign.run_country(data::country("DE"));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].idle_rtt.value(), second[i].idle_rtt.value());
  }
}

}  // namespace
}  // namespace spacecdn
