// Cache policies: LRU, LFU, FIFO, and a TTL decorator.
//
// Both ground CDN edges and SpaceCDN satellite caches use these; the
// content-bubble work (paper section 5) additionally needs region-aware
// eviction, built on top in spacecdn/bubbles.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cdn/content.hpp"
#include "util/units.hpp"

namespace spacecdn::cdn {

/// Hit/miss/eviction counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Inserts refused because the object exceeds the whole capacity.  A
  /// placement loop that keeps offering such an object would otherwise spin
  /// invisibly: the insert fails without a hit, miss, or eviction.
  std::uint64_t rejected_oversized = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Abstract capacity-bounded object cache.
///
/// Methods take the current simulation time so that time-aware policies
/// (TTL) share the interface; time-oblivious policies ignore it.
/// Per-instance cached counter handles (defined in cache.cpp); keeps the
/// per-event cost at a pointer bump instead of a registry name lookup.
struct CacheTelemetry;

class Cache {
 public:
  explicit Cache(Megabytes capacity);
  virtual ~Cache();
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Looks up `id`, updating policy state and hit/miss stats.
  [[nodiscard]] virtual bool access(ContentId id, Milliseconds now) = 0;

  /// Pure query: no stats or recency update.
  [[nodiscard]] virtual bool contains(ContentId id) const = 0;

  /// Admits an object (no-op if present), evicting until it fits.
  /// Objects larger than the whole capacity are rejected (returns false).
  virtual bool insert(const ContentItem& item, Milliseconds now) = 0;

  /// Removes an object if present; returns whether it was present.
  virtual bool erase(ContentId id) = 0;

  /// Drops every object (a cache-node crash loses its contents).  Counters
  /// are preserved -- crashes are not evictions -- so hit-rate analyses stay
  /// meaningful across failures.
  virtual void clear() = 0;

  [[nodiscard]] virtual std::uint64_t object_count() const = 0;

  [[nodiscard]] Megabytes capacity() const noexcept { return capacity_; }
  [[nodiscard]] Megabytes used() const noexcept { return used_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Tier label under which this cache reports to the telemetry registry
  /// (`spacecdn_cache_*_total{tier="..."}`).  Empty (the default) keeps the
  /// cache out of the registry -- local per-instance stats_ always accrue.
  void set_telemetry_tier(std::string_view tier);

 protected:
  // Policy implementations report through these so the registry sees every
  // hit/miss/insert/eviction with the owning tier's label.
  void note_hit();
  void note_miss();
  void note_insert();
  void note_evict();
  void note_reject_oversized();

  Megabytes capacity_;
  Megabytes used_{0.0};
  CacheStats stats_;

 private:
  std::unique_ptr<CacheTelemetry> telemetry_;
};

/// Least-recently-used eviction.  O(1) access and insert.
class LruCache final : public Cache {
 public:
  explicit LruCache(Megabytes capacity);

  [[nodiscard]] bool access(ContentId id, Milliseconds now) override;
  [[nodiscard]] bool contains(ContentId id) const override;
  bool insert(const ContentItem& item, Milliseconds now) override;
  bool erase(ContentId id) override;
  void clear() override;
  [[nodiscard]] std::uint64_t object_count() const override;

 private:
  struct Entry {
    ContentId id;
    Megabytes size;
  };
  void evict_one();

  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<ContentId, std::list<Entry>::iterator> index_;
};

/// Least-frequently-used eviction with LRU tie-breaking (frequency buckets;
/// O(1) amortised).
class LfuCache final : public Cache {
 public:
  explicit LfuCache(Megabytes capacity);

  [[nodiscard]] bool access(ContentId id, Milliseconds now) override;
  [[nodiscard]] bool contains(ContentId id) const override;
  bool insert(const ContentItem& item, Milliseconds now) override;
  bool erase(ContentId id) override;
  void clear() override;
  [[nodiscard]] std::uint64_t object_count() const override;

 private:
  struct Entry {
    ContentId id;
    Megabytes size;
    std::uint64_t frequency;
  };
  using Bucket = std::list<Entry>;  // within a frequency: front = most recent

  void bump(ContentId id);
  void evict_one();

  std::map<std::uint64_t, Bucket> buckets_;  // frequency -> entries
  std::unordered_map<ContentId, Bucket::iterator> index_;
};

/// First-in first-out eviction (insertion order, no recency update).
class FifoCache final : public Cache {
 public:
  explicit FifoCache(Megabytes capacity);

  [[nodiscard]] bool access(ContentId id, Milliseconds now) override;
  [[nodiscard]] bool contains(ContentId id) const override;
  bool insert(const ContentItem& item, Milliseconds now) override;
  bool erase(ContentId id) override;
  void clear() override;
  [[nodiscard]] std::uint64_t object_count() const override;

 private:
  struct Entry {
    ContentId id;
    Megabytes size;
  };
  void evict_one();

  std::list<Entry> fifo_;  // front = oldest
  std::unordered_map<ContentId, std::list<Entry>::iterator> index_;
};

/// Decorator adding a time-to-live to any inner cache: entries older than
/// `ttl` count as misses and are erased on access.
class TtlCache final : public Cache {
 public:
  TtlCache(std::unique_ptr<Cache> inner, Milliseconds ttl);

  [[nodiscard]] bool access(ContentId id, Milliseconds now) override;
  [[nodiscard]] bool contains(ContentId id) const override;
  bool insert(const ContentItem& item, Milliseconds now) override;
  bool erase(ContentId id) override;
  void clear() override;
  [[nodiscard]] std::uint64_t object_count() const override;

 private:
  std::unique_ptr<Cache> inner_;
  Milliseconds ttl_;
  std::unordered_map<ContentId, Milliseconds> inserted_at_;
};

/// Eviction policy selector for factories.
enum class CachePolicy { kLru, kLfu, kFifo };

[[nodiscard]] std::unique_ptr<Cache> make_cache(CachePolicy policy, Megabytes capacity);

[[nodiscard]] std::string_view to_string(CachePolicy policy) noexcept;

}  // namespace spacecdn::cdn
