// Epoch-cached single-source shortest-path routing engine.
//
// LEO topology is static between epoch ticks (ephemeris advances, fail and
// recover events), yet every simulated fetch used to re-run a full Dijkstra
// -- sometimes one per BFS candidate.  Hypatia and StarryNet precompute
// per-snapshot routing state for exactly this reason.  RoutingCache memoises
// whole SSSP trees (net::SsspTree: distances + parent arrays) per source
// node, so `path_latency`, `latencies_from`, and hop-count reconstruction
// all come from one cached tree.  A tree is a pure function of the edge set,
// so a miss recomputes exactly the tree that was dropped.  Entries are keyed
// by a topology epoch that the graph owner bumps on every mutation; stale
// trees are discarded lazily and an LRU bound caps the number of cached
// sources.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"

namespace spacecdn::net {

/// Cache statistics (cumulative over the cache's lifetime).
struct RoutingCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;      // LRU-bound evictions
  std::uint64_t invalidations = 0;  // epoch bumps

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Epoch-keyed, LRU-bounded memoisation of SSSP trees over one graph.
///
/// Thread-safe: lookups take a shared lock, misses upgrade to exclusive to
/// insert.  Trees are handed out as shared_ptr so a reader keeps its tree
/// alive even if a concurrent miss LRU-evicts the entry.  The graph itself
/// must not be mutated concurrently with queries; owners bump the epoch
/// (invalidate()) under the same external discipline they mutate the graph.
class RoutingCache {
 public:
  /// @param graph        graph to memoise over (must outlive the cache).
  /// @param max_sources  LRU bound on distinct cached source nodes.
  explicit RoutingCache(const Graph& graph, std::size_t max_sources = 256);

  /// The cached SSSP tree from `source`, computing it on a miss.
  [[nodiscard]] std::shared_ptr<const SsspTree> tree(NodeId source) const;

  /// Drops every cached tree by bumping the epoch (O(1); entries are
  /// reclaimed lazily).  Call after any graph mutation.
  void invalidate() noexcept;

  [[nodiscard]] std::uint64_t epoch() const noexcept;
  [[nodiscard]] std::size_t cached_sources() const;
  [[nodiscard]] RoutingCacheStats stats() const;

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    std::shared_ptr<const SsspTree> tree;
    std::list<NodeId>::iterator lru_it;  // position in lru_ (front = hottest)
  };

  const Graph* graph_;
  std::size_t max_sources_;
  mutable std::shared_mutex mutex_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::unordered_map<NodeId, Entry> entries_;
  mutable std::list<NodeId> lru_;
  // Atomics: hits are counted under the shared lock, where a plain counter
  // would be a data race between concurrent readers.
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace spacecdn::net
