#include "net/routing_cache.hpp"

#include "util/error.hpp"

namespace spacecdn::net {

RoutingCache::RoutingCache(const Graph& graph, std::size_t max_sources)
    : graph_(&graph), max_sources_(max_sources) {
  SPACECDN_EXPECT(max_sources > 0, "routing cache needs room for at least one source");
}

std::shared_ptr<const SsspTree> RoutingCache::tree(NodeId source) const {
  {
    std::shared_lock lock(mutex_);
    const auto it = entries_.find(source);
    if (it != entries_.end() && it->second.epoch == epoch_) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.tree;
    }
  }
  // Miss (or stale): compute outside any lock -- the tree build dominates --
  // then insert.  A racing thread may compute the same tree; both results
  // are identical, the second insert just wins.
  auto computed = std::make_shared<const SsspTree>(*graph_, source);
  std::unique_lock lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (const auto it = entries_.find(source); it != entries_.end()) {
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  while (entries_.size() >= max_sources_) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.push_front(source);
  entries_[source] = Entry{epoch_, computed, lru_.begin()};
  return computed;
}

void RoutingCache::invalidate() noexcept {
  std::unique_lock lock(mutex_);
  ++epoch_;
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  // Entries are discarded lazily on lookup; dropping them now keeps memory
  // proportional to live (current-epoch) trees.
  entries_.clear();
  lru_.clear();
}

std::uint64_t RoutingCache::epoch() const noexcept {
  std::shared_lock lock(mutex_);
  return epoch_;
}

std::size_t RoutingCache::cached_sources() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

RoutingCacheStats RoutingCache::stats() const {
  RoutingCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace spacecdn::net
