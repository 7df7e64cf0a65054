// Weighted graph and shortest-path routing.
//
// Nodes are dense integer ids (satellites, ground stations, PoPs, CDN sites
// all map onto them).  Edge weights are one-way latencies in milliseconds.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::net {

using NodeId = std::uint32_t;

/// One outgoing adjacency.
struct Edge {
  NodeId to = 0;
  Milliseconds weight{0.0};
};

/// A routing result: total latency plus the node sequence (src first).
struct Path {
  Milliseconds total{0.0};
  std::vector<NodeId> nodes;

  [[nodiscard]] std::size_t hop_count() const noexcept {
    return nodes.empty() ? 0 : nodes.size() - 1;
  }
};

/// Digraph with latency weights.  All edges live in one flat array in which
/// every node owns a contiguous row with slack, so adding or removing an
/// edge patches one row in place: a fault touches O(degree) slots, never the
/// whole graph.  A row that outgrows its slack moves to the end of the array
/// with doubled capacity; clear_edges() keeps every row's slots.
///
/// Within a row, edges keep insertion order: removal closes the gap without
/// reordering and re-adding appends.  nodes_within_hops emits neighbours in
/// that order, so BFS tie-breaks depend on it.
class Graph {
 public:
  Graph() = default;
  /// Pre-creates `n` nodes (ids 0..n-1).
  explicit Graph(std::size_t n) : rows_(n) {}

  /// Adds a node; returns its id.
  NodeId add_node();

  [[nodiscard]] std::size_t node_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Adds a directed edge.  @throws spacecdn::ConfigError on bad ids or a
  /// negative or non-finite weight.
  void add_edge(NodeId from, NodeId to, Milliseconds weight);

  /// Adds edges in both directions with the same weight.
  void add_undirected_edge(NodeId a, NodeId b, Milliseconds weight);

  /// Removes every from->to edge; returns how many were removed.  Used by
  /// incremental failure injection (lsn::IslNetwork::fail/recover), which
  /// surgically detaches a node instead of rebuilding the whole topology.
  std::size_t remove_edge(NodeId from, NodeId to);

  /// Removes a<->b in both directions; returns how many edges were removed.
  std::size_t remove_undirected_edge(NodeId a, NodeId b);

  /// Outgoing edges of `node` in row order; valid until the next mutation.
  [[nodiscard]] std::span<const Edge> neighbors(NodeId node) const;

  /// Drops all edges but keeps the nodes and their row slots (used when the
  /// topology is recomputed every ephemeris step).
  void clear_edges() noexcept;

  /// Bounds on the edge weights: every edge weighs at least
  /// min_edge_weight() and at most max_edge_weight().  Both track add_edge
  /// and reset on clear_edges (to infinity and 0); remove_edge leaves them,
  /// so they may be loose after a removal.  SsspTree sizes its distance
  /// buckets from them.
  [[nodiscard]] Milliseconds min_edge_weight() const noexcept {
    return Milliseconds{min_weight_};
  }
  [[nodiscard]] Milliseconds max_edge_weight() const noexcept {
    return Milliseconds{max_weight_};
  }

 private:
  struct Row {
    std::size_t begin = 0;  // first slot in slots_
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  std::vector<Row> rows_;
  std::vector<Edge> slots_;
  std::size_t edges_ = 0;
  double min_weight_ = std::numeric_limits<double>::infinity();
  double max_weight_ = 0.0;
};

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// One single-source shortest-path tree, immutable once computed.
///
/// The tree is a pure function of the edge set.  `parent[v]` is the
/// in-neighbour u with the smallest (distance(u), u) among those where
/// distance(u) + w(u, v) == distance(v), compared as exact doubles; it is
/// `source` for the source itself and for unreachable nodes.  This is the
/// tree a binary-heap Dijkstra popping in (distance, node) order builds,
/// whatever the edge order.  (With zero-weight edges, or weights too small
/// to change a sum, the rule is that heap's: the earliest-popped in-neighbour.)
///
/// The kernel is a bucketed label-setting search.  Buckets are
/// min_edge_weight() wide, so no relaxation lands in the bucket being
/// scanned and each bucket is scanned in any order, ties settled by the rule
/// above.  Graphs with a zero-weight edge, or whose max/min weight ratio
/// exceeds the bucket ring, use wider buckets, each popped in (distance,
/// node) order, which reproduces the heap exactly.  Bucket storage is
/// per-thread and reused, so concurrent builds on one graph are safe.
class SsspTree {
 public:
  SsspTree(const Graph& graph, NodeId source);

  [[nodiscard]] NodeId source() const noexcept { return source_; }

  [[nodiscard]] Milliseconds distance(NodeId target) const {
    return distances_[target];
  }
  [[nodiscard]] bool reachable(NodeId target) const {
    return distances_[target].value() != kUnreachable;
  }
  [[nodiscard]] const std::vector<Milliseconds>& distances() const noexcept {
    return distances_;
  }

  /// Hop count of the shortest path source -> target; 0 for the source
  /// itself.  @throws spacecdn::ConfigError when target is unreachable.
  [[nodiscard]] std::uint32_t hops_to(NodeId target) const;

  /// Node sequence of the shortest path (source first), reconstructed from
  /// the parent array.  @throws spacecdn::ConfigError when unreachable.
  [[nodiscard]] Path path_to(NodeId target) const;

 private:
  NodeId source_;
  std::vector<Milliseconds> distances_;
  std::vector<NodeId> parents_;
};

/// Single-source shortest distances (one SsspTree).  Unreachable nodes get
/// Milliseconds{infinity}.
[[nodiscard]] std::vector<Milliseconds> shortest_distances(const Graph& g, NodeId source);

/// Shortest path between two nodes (the SsspTree path), or nullopt when
/// unreachable.
[[nodiscard]] std::optional<Path> shortest_path(const Graph& g, NodeId source,
                                                NodeId target);

/// Result of a bounded breadth-first search: node and its hop distance.
struct HopDistance {
  NodeId node = 0;
  std::uint32_t hops = 0;
};

/// All nodes within `max_hops` of `source` (including source at 0 hops),
/// in breadth-first order, neighbours in row order.  Edge weights are
/// ignored; this is the ISL hop-count search the SpaceCDN lookup uses.
[[nodiscard]] std::vector<HopDistance> nodes_within_hops(const Graph& g, NodeId source,
                                                         std::uint32_t max_hops);

}  // namespace spacecdn::net
