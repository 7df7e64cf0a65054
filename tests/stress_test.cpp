// Stress and differential tests: randomized workloads checked against naive
// reference implementations, and event-storm robustness for the DES core.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

#include "cdn/cache.hpp"
#include "des/simulator.hpp"
#include "net/graph.hpp"
#include "util/error.hpp"

namespace spacecdn {
namespace {

// A deliberately naive LRU used as the oracle for the production LruCache.
class ReferenceLru {
 public:
  explicit ReferenceLru(double capacity_mb) : capacity_(capacity_mb) {}

  bool access(cdn::ContentId id) {
    const auto it = std::find_if(items_.begin(), items_.end(),
                                 [&](const auto& e) { return e.first == id; });
    if (it == items_.end()) return false;
    items_.splice(items_.begin(), items_, it);
    return true;
  }

  bool insert(cdn::ContentId id, double mb) {
    if (access(id)) return true;
    if (mb > capacity_) return false;
    while (used_ + mb > capacity_) {
      used_ -= items_.back().second;
      items_.pop_back();
    }
    items_.emplace_front(id, mb);
    used_ += mb;
    return true;
  }

  bool erase(cdn::ContentId id) {
    const auto it = std::find_if(items_.begin(), items_.end(),
                                 [&](const auto& e) { return e.first == id; });
    if (it == items_.end()) return false;
    used_ -= it->second;
    items_.erase(it);
    return true;
  }

  [[nodiscard]] bool contains(cdn::ContentId id) const {
    return std::any_of(items_.begin(), items_.end(),
                       [&](const auto& e) { return e.first == id; });
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] double used() const { return used_; }

 private:
  double capacity_;
  double used_ = 0.0;
  std::list<std::pair<cdn::ContentId, double>> items_;  // front = most recent
};

TEST(Differential, LruMatchesReferenceModel) {
  des::Rng rng(101);
  cdn::LruCache cache(Megabytes{40.0});
  ReferenceLru reference(40.0);

  std::map<cdn::ContentId, double> sizes;  // stable size per id
  for (int op = 0; op < 20000; ++op) {
    const cdn::ContentId id = rng.uniform_int(0, 30);
    if (sizes.find(id) == sizes.end()) sizes[id] = rng.uniform(1.0, 6.0);
    const double mb = sizes[id];
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.45) {
      EXPECT_EQ(cache.insert(cdn::ContentItem{id, Megabytes{mb},
                                              data::Region::kEurope},
                             Milliseconds{0.0}),
                reference.insert(id, mb))
          << "op " << op;
    } else if (roll < 0.55) {
      EXPECT_EQ(cache.erase(id), reference.erase(id)) << "op " << op;
    } else {
      EXPECT_EQ(cache.access(id, Milliseconds{0.0}), reference.access(id))
          << "op " << op;
    }
    ASSERT_EQ(cache.object_count(), reference.size()) << "op " << op;
    ASSERT_NEAR(cache.used().value(), reference.used(), 1e-9) << "op " << op;
  }
}

TEST(Differential, EveryPolicyAgreesOnPresenceAfterColdInsert) {
  // Whatever the eviction order, an object inserted into an empty cache is
  // present, and after capacity-1 more inserts of tiny objects it still is.
  for (const auto policy : {cdn::CachePolicy::kLru, cdn::CachePolicy::kLfu,
                            cdn::CachePolicy::kFifo}) {
    const auto cache = cdn::make_cache(policy, Megabytes{100.0});
    ASSERT_TRUE(cache->insert(cdn::ContentItem{0, Megabytes{1.0},
                                               data::Region::kAsia},
                              Milliseconds{0.0}));
    for (cdn::ContentId id = 1; id <= 50; ++id) {
      (void)cache->insert(cdn::ContentItem{id, Megabytes{1.0}, data::Region::kAsia},
                          Milliseconds{0.0});
    }
    EXPECT_TRUE(cache->contains(0)) << cdn::to_string(policy);
  }
}

TEST(Stress, SimulatorScheduleStorm) {
  des::Simulator sim;
  des::Rng rng(102);
  int fired = 0;
  int scheduled = 0;

  // A self-perpetuating storm: events schedule further events from inside
  // their actions, recycling pooled slots while the queue is live.
  std::function<void()> spawn = [&] {
    ++fired;
    if (scheduled > 5000) return;
    const int children = static_cast<int>(rng.uniform_int(0, 3));
    for (int c = 0; c < children; ++c) {
      ++scheduled;
      sim.schedule(Milliseconds{rng.uniform(0.1, 10.0)}, spawn);
    }
  };
  for (int seed_events = 0; seed_events < 10; ++seed_events) {
    ++scheduled;
    sim.schedule(Milliseconds{rng.uniform(0.0, 1.0)}, spawn);
  }
  sim.run();
  EXPECT_EQ(fired, scheduled);
  EXPECT_EQ(sim.processed_events(), static_cast<std::uint64_t>(scheduled));
  EXPECT_GT(scheduled, 5000);
}

TEST(Stress, SimulatorClockNeverRegresses) {
  des::Simulator sim;
  des::Rng rng(103);
  double last = -1.0;
  for (int i = 0; i < 500; ++i) {
    sim.schedule(Milliseconds{rng.uniform(0.0, 100.0)}, [&] {
      EXPECT_GE(sim.now().value(), last);
      last = sim.now().value();
    });
  }
  sim.run();
  EXPECT_GE(last, 0.0);
}

TEST(Stress, GraphReusedAfterClearEdges) {
  net::Graph g(100);
  des::Rng rng(105);
  for (int round = 0; round < 5; ++round) {
    g.clear_edges();
    for (int e = 0; e < 300; ++e) {
      const auto a = static_cast<net::NodeId>(rng.uniform_int(0, 99));
      const auto b = static_cast<net::NodeId>(rng.uniform_int(0, 99));
      if (a != b) g.add_undirected_edge(a, b, Milliseconds{rng.uniform(0.5, 5.0)});
    }
    const auto dist = net::shortest_distances(g, 0);
    EXPECT_EQ(dist.size(), 100u);
    EXPECT_DOUBLE_EQ(dist[0].value(), 0.0);
  }
}

TEST(Stress, DijkstraHopBfsConsistency) {
  // On a unit-weight graph, Dijkstra distance equals BFS hop count.
  des::Rng rng(106);
  net::Graph g(60);
  for (int e = 0; e < 150; ++e) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, 59));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, 59));
    if (a != b) g.add_undirected_edge(a, b, Milliseconds{1.0});
  }
  const auto dist = net::shortest_distances(g, 7);
  for (const auto& hd : net::nodes_within_hops(g, 7, 60)) {
    EXPECT_DOUBLE_EQ(dist[hd.node].value(), static_cast<double>(hd.hops));
  }
}

}  // namespace
}  // namespace spacecdn
