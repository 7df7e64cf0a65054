#include "net/graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace spacecdn::net {

NodeId Graph::add_node() {
  rows_.emplace_back();
  return static_cast<NodeId>(rows_.size() - 1);
}

void Graph::add_edge(NodeId from, NodeId to, Milliseconds weight) {
  SPACECDN_EXPECT(from < rows_.size() && to < rows_.size(),
                  "edge endpoints must be existing nodes");
  SPACECDN_EXPECT(std::isfinite(weight.value()) && weight.value() >= 0.0,
                  "edge weight must be finite and non-negative");
  Row& row = rows_[from];
  if (row.size == row.capacity) {
    // Move the row to the end with doubled capacity; its old slots go unused.
    const std::uint32_t capacity = std::max<std::uint32_t>(4, 2 * row.capacity);
    const std::size_t begin = slots_.size();
    slots_.resize(begin + capacity);
    std::copy_n(slots_.begin() + static_cast<std::ptrdiff_t>(row.begin), row.size,
                slots_.begin() + static_cast<std::ptrdiff_t>(begin));
    row.begin = begin;
    row.capacity = capacity;
  }
  slots_[row.begin + row.size++] = Edge{to, weight};
  ++edges_;
  min_weight_ = std::min(min_weight_, weight.value());
  max_weight_ = std::max(max_weight_, weight.value());
}

void Graph::add_undirected_edge(NodeId a, NodeId b, Milliseconds weight) {
  add_edge(a, b, weight);
  add_edge(b, a, weight);
}

std::size_t Graph::remove_edge(NodeId from, NodeId to) {
  SPACECDN_EXPECT(from < rows_.size() && to < rows_.size(),
                  "edge endpoints must be existing nodes");
  Row& row = rows_[from];
  Edge* const first = slots_.data() + row.begin;
  Edge* const last = first + row.size;
  const Edge* const kept_end =
      std::remove_if(first, last, [to](const Edge& e) { return e.to == to; });
  const auto removed = static_cast<std::uint32_t>(last - kept_end);
  row.size -= removed;
  edges_ -= removed;
  return removed;
}

std::size_t Graph::remove_undirected_edge(NodeId a, NodeId b) {
  return remove_edge(a, b) + remove_edge(b, a);
}

std::span<const Edge> Graph::neighbors(NodeId node) const {
  SPACECDN_EXPECT(node < rows_.size(), "node id out of range");
  const Row& row = rows_[node];
  return {slots_.data() + row.begin, row.size};
}

void Graph::clear_edges() noexcept {
  for (Row& row : rows_) row.size = 0;
  edges_ = 0;
  min_weight_ = std::numeric_limits<double>::infinity();
  max_weight_ = 0.0;
}

namespace {

struct Label {
  double dist;
  NodeId node;
};

/// Heap order that pops the smallest (dist, node) first.
bool pops_after(const Label& a, const Label& b) noexcept {
  return a.dist > b.dist || (a.dist == b.dist && a.node > b.node);
}

/// Largest max/min edge-weight ratio scanned with lightest-edge buckets.  It
/// caps the bucket ring (and so per-thread memory) at a constant.  It also
/// keeps every distance below 2^53 lightest weights, so d + w > d on every
/// relaxation: with no zero-length step the (dist, node) tie rule yields
/// the heap's tree.
constexpr double kMaxWeightSpan = 256.0;

/// The bucket loop.  `Ordered` pops each bucket as a (dist, node) heap with
/// first-come parents; otherwise buckets are scanned in push order and
/// equal-distance parents are settled by (dist, node).
template <bool Ordered>
void grow_tree(const Graph& graph, NodeId source, double width,
               std::span<std::vector<Label>> buckets, std::vector<Milliseconds>& dist,
               std::vector<NodeId>& parent) {
  const double per_width = 1.0 / width;
  const std::size_t mask = buckets.size() - 1;
  std::size_t pending = 0;  // labels pushed and not yet popped
  const auto push = [&](double d, NodeId v) {
    auto& bucket = buckets[static_cast<std::size_t>(d * per_width) & mask];
    bucket.push_back(Label{d, v});
    if constexpr (Ordered) std::push_heap(bucket.begin(), bucket.end(), pops_after);
    ++pending;
  };
  const auto settle = [&](Label label) {
    const auto [d, u] = label;
    if (d > dist[u].value()) return;  // superseded by a shorter push
    for (const Edge& e : graph.neighbors(u)) {
      const double nd = d + e.weight.value();
      const double old = dist[e.to].value();
      if (nd < old) {
        dist[e.to] = Milliseconds{nd};
        parent[e.to] = u;
        push(nd, e.to);
      } else if constexpr (!Ordered) {
        if (nd == old) {
          const NodeId p = parent[e.to];
          const double dp = dist[p].value();
          if (d < dp || (d == dp && u < p)) parent[e.to] = u;
        }
      }
    }
  };

  dist[source] = Milliseconds{0.0};
  push(0.0, source);
  // Bucket k holds labels with floor(dist / width) == k; a relaxation never
  // lowers that index, and never raises it by more than the ring's span.
  for (std::size_t k = 0; pending > 0; ++k) {
    auto& bucket = buckets[k & mask];
    if constexpr (Ordered) {
      while (!bucket.empty()) {
        std::pop_heap(bucket.begin(), bucket.end(), pops_after);
        const Label label = bucket.back();
        bucket.pop_back();
        --pending;
        settle(label);
      }
    } else {
      // Indexed: settle() may append to this bucket when rounding puts a
      // relaxed distance back into it.
      for (std::size_t i = 0; i < bucket.size(); ++i) settle(bucket[i]);
      pending -= bucket.size();
      bucket.clear();
    }
  }
}

}  // namespace

SsspTree::SsspTree(const Graph& graph, NodeId source)
    : source_(source),
      distances_(graph.node_count(), Milliseconds{kUnreachable}),
      parents_(graph.node_count(), source) {
  SPACECDN_EXPECT(source < graph.node_count(), "source node out of range");
  const double lightest = graph.min_edge_weight().value();
  const double heaviest = graph.max_edge_weight().value();
  double width = std::max(lightest, heaviest / kMaxWeightSpan);
  if (!(width > 0.0 && width < kUnreachable)) width = 1.0;  // no edges, or all weigh 0
  // A push lands at most floor(heaviest / width) + 1 buckets ahead (plus one
  // for rounding), so this ring never wraps onto a live bucket.
  const auto ring = std::bit_ceil(static_cast<std::size_t>(heaviest / width) + 3);
  thread_local std::vector<std::vector<Label>> buckets;  // all empty between builds
  if (buckets.size() < ring) buckets.resize(ring);
  const std::span<std::vector<Label>> used(buckets.data(), ring);
  if (width == lightest) {
    grow_tree<false>(graph, source, width, used, distances_, parents_);
  } else {
    grow_tree<true>(graph, source, width, used, distances_, parents_);
  }
}

std::uint32_t SsspTree::hops_to(NodeId target) const {
  SPACECDN_EXPECT(target < distances_.size(), "target node out of range");
  SPACECDN_EXPECT(reachable(target), "target unreachable from SSSP source");
  std::uint32_t hops = 0;
  for (NodeId n = target; n != source_; n = parents_[n]) ++hops;
  return hops;
}

Path SsspTree::path_to(NodeId target) const {
  SPACECDN_EXPECT(target < distances_.size(), "target node out of range");
  SPACECDN_EXPECT(reachable(target), "target unreachable from SSSP source");
  Path path;
  path.total = distances_[target];
  for (NodeId n = target;; n = parents_[n]) {
    path.nodes.push_back(n);
    if (n == source_) break;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

std::vector<Milliseconds> shortest_distances(const Graph& g, NodeId source) {
  return SsspTree(g, source).distances();
}

std::optional<Path> shortest_path(const Graph& g, NodeId source, NodeId target) {
  SPACECDN_EXPECT(target < g.node_count(), "path endpoints must be existing nodes");
  const SsspTree tree(g, source);
  if (!tree.reachable(target)) return std::nullopt;
  return tree.path_to(target);
}

std::vector<HopDistance> nodes_within_hops(const Graph& g, NodeId source,
                                           std::uint32_t max_hops) {
  SPACECDN_EXPECT(source < g.node_count(), "source node out of range");
  std::vector<bool> seen(g.node_count(), false);
  seen[source] = true;
  // The output doubles as the FIFO frontier: nodes are emitted in the order
  // they are discovered.
  std::vector<HopDistance> out{{source, 0}};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const HopDistance cur = out[i];
    if (cur.hops == max_hops) continue;
    for (const Edge& e : g.neighbors(cur.node)) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        out.push_back({e.to, cur.hops + 1});
      }
    }
  }
  return out;
}

}  // namespace spacecdn::net
