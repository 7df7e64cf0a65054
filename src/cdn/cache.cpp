#include "cdn/cache.hpp"

#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace spacecdn::cdn {

struct CacheTelemetry {
  explicit CacheTelemetry(const std::string& tier)
      : hit("spacecdn_cache_hit_total", {{"tier", tier}}),
        miss("spacecdn_cache_miss_total", {{"tier", tier}}),
        insert("spacecdn_cache_insert_total", {{"tier", tier}}),
        evict("spacecdn_cache_evict_total", {{"tier", tier}}),
        reject_oversized("spacecdn_cache_reject_oversized_total", {{"tier", tier}}) {}

  obs::CounterHandle hit;
  obs::CounterHandle miss;
  obs::CounterHandle insert;
  obs::CounterHandle evict;
  obs::CounterHandle reject_oversized;
};

Cache::Cache(Megabytes capacity) : capacity_(capacity) {
  SPACECDN_EXPECT(capacity.value() > 0.0, "cache capacity must be positive");
}

Cache::~Cache() = default;

void Cache::set_telemetry_tier(std::string_view tier) {
  telemetry_ =
      tier.empty() ? nullptr : std::make_unique<CacheTelemetry>(std::string(tier));
}

void Cache::note_hit() {
  ++stats_.hits;
  if (telemetry_) telemetry_->hit.inc();
}

void Cache::note_miss() {
  ++stats_.misses;
  if (telemetry_) telemetry_->miss.inc();
}

void Cache::note_insert() {
  ++stats_.insertions;
  if (telemetry_) telemetry_->insert.inc();
}

void Cache::note_evict() {
  ++stats_.evictions;
  if (telemetry_) telemetry_->evict.inc();
}

void Cache::note_reject_oversized() {
  ++stats_.rejected_oversized;
  if (telemetry_) telemetry_->reject_oversized.inc();
}

// ---------------------------------------------------------------- LruCache

LruCache::LruCache(Megabytes capacity) : Cache(capacity) {}

bool LruCache::access(ContentId id, Milliseconds /*now*/) {
  SPACECDN_PROFILE("Cache::access");
  const auto it = index_.find(id);
  if (it == index_.end()) {
    note_miss();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  note_hit();
  return true;
}

bool LruCache::contains(ContentId id) const { return index_.count(id) != 0; }

bool LruCache::insert(const ContentItem& item, Milliseconds /*now*/) {
  if (const auto it = index_.find(item.id); it != index_.end()) {
    // Re-storing an object counts as a use: refresh its recency so a warm
    // re-insert (e.g. a bubble refresh) protects it from eviction.
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  if (item.size > capacity_) {
    note_reject_oversized();
    return false;
  }
  while (used_ + item.size > capacity_) evict_one();
  lru_.push_front(Entry{item.id, item.size});
  index_[item.id] = lru_.begin();
  used_ += item.size;
  note_insert();
  return true;
}

bool LruCache::erase(ContentId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  used_ -= it->second->size;
  lru_.erase(it->second);
  index_.erase(it);
  return true;
}

void LruCache::clear() {
  lru_.clear();
  index_.clear();
  used_ = Megabytes{0.0};
}

std::uint64_t LruCache::object_count() const { return index_.size(); }

void LruCache::evict_one() {
  SPACECDN_EXPECT(!lru_.empty(), "evicting from an empty cache");
  const Entry& victim = lru_.back();
  used_ -= victim.size;
  index_.erase(victim.id);
  lru_.pop_back();
  note_evict();
}

// ---------------------------------------------------------------- LfuCache

LfuCache::LfuCache(Megabytes capacity) : Cache(capacity) {}

bool LfuCache::access(ContentId id, Milliseconds /*now*/) {
  SPACECDN_PROFILE("Cache::access");
  if (index_.find(id) == index_.end()) {
    note_miss();
    return false;
  }
  bump(id);
  note_hit();
  return true;
}

bool LfuCache::contains(ContentId id) const { return index_.count(id) != 0; }

bool LfuCache::insert(const ContentItem& item, Milliseconds /*now*/) {
  if (index_.count(item.id) != 0) return true;
  if (item.size > capacity_) {
    note_reject_oversized();
    return false;
  }
  while (used_ + item.size > capacity_) evict_one();
  Bucket& bucket = buckets_[1];
  bucket.push_front(Entry{item.id, item.size, 1});
  index_[item.id] = bucket.begin();
  used_ += item.size;
  note_insert();
  return true;
}

bool LfuCache::erase(ContentId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const auto bucket_it = buckets_.find(it->second->frequency);
  used_ -= it->second->size;
  bucket_it->second.erase(it->second);
  if (bucket_it->second.empty()) buckets_.erase(bucket_it);
  index_.erase(it);
  return true;
}

void LfuCache::clear() {
  buckets_.clear();
  index_.clear();
  used_ = Megabytes{0.0};
}

std::uint64_t LfuCache::object_count() const { return index_.size(); }

void LfuCache::bump(ContentId id) {
  const auto idx_it = index_.find(id);
  Entry entry = *idx_it->second;
  const auto old_bucket = buckets_.find(entry.frequency);
  old_bucket->second.erase(idx_it->second);
  if (old_bucket->second.empty()) buckets_.erase(old_bucket);
  ++entry.frequency;
  Bucket& bucket = buckets_[entry.frequency];
  bucket.push_front(entry);
  idx_it->second = bucket.begin();
}

void LfuCache::evict_one() {
  SPACECDN_EXPECT(!buckets_.empty(), "evicting from an empty cache");
  Bucket& lowest = buckets_.begin()->second;
  // Within the lowest frequency, the least recently touched sits at the back.
  const Entry& victim = lowest.back();
  used_ -= victim.size;
  index_.erase(victim.id);
  lowest.pop_back();
  if (lowest.empty()) buckets_.erase(buckets_.begin());
  note_evict();
}

// --------------------------------------------------------------- FifoCache

FifoCache::FifoCache(Megabytes capacity) : Cache(capacity) {}

bool FifoCache::access(ContentId id, Milliseconds /*now*/) {
  SPACECDN_PROFILE("Cache::access");
  if (index_.find(id) == index_.end()) {
    note_miss();
    return false;
  }
  note_hit();
  return true;
}

bool FifoCache::contains(ContentId id) const { return index_.count(id) != 0; }

bool FifoCache::insert(const ContentItem& item, Milliseconds /*now*/) {
  if (index_.count(item.id) != 0) return true;
  if (item.size > capacity_) {
    note_reject_oversized();
    return false;
  }
  while (used_ + item.size > capacity_) evict_one();
  fifo_.push_back(Entry{item.id, item.size});
  index_[item.id] = std::prev(fifo_.end());
  used_ += item.size;
  note_insert();
  return true;
}

bool FifoCache::erase(ContentId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  used_ -= it->second->size;
  fifo_.erase(it->second);
  index_.erase(it);
  return true;
}

void FifoCache::clear() {
  fifo_.clear();
  index_.clear();
  used_ = Megabytes{0.0};
}

std::uint64_t FifoCache::object_count() const { return index_.size(); }

void FifoCache::evict_one() {
  SPACECDN_EXPECT(!fifo_.empty(), "evicting from an empty cache");
  const Entry& victim = fifo_.front();
  used_ -= victim.size;
  index_.erase(victim.id);
  fifo_.pop_front();
  note_evict();
}

// ---------------------------------------------------------------- TtlCache

TtlCache::TtlCache(std::unique_ptr<Cache> inner, Milliseconds ttl)
    : Cache(inner->capacity()), inner_(std::move(inner)), ttl_(ttl) {
  SPACECDN_EXPECT(ttl.value() > 0.0, "TTL must be positive");
}

bool TtlCache::access(ContentId id, Milliseconds now) {
  const auto it = inserted_at_.find(id);
  if (it != inserted_at_.end() && now - it->second > ttl_) {
    inner_->erase(id);
    inserted_at_.erase(it);
    note_miss();
    return false;
  }
  const bool hit = inner_->access(id, now);
  hit ? note_hit() : note_miss();
  return hit;
}

bool TtlCache::contains(ContentId id) const { return inner_->contains(id); }

bool TtlCache::insert(const ContentItem& item, Milliseconds now) {
  // Check before delegating so the decorator's own stats record the
  // rejection; the inner cache never sees the doomed offer.
  if (item.size > capacity_) {
    note_reject_oversized();
    return false;
  }
  if (!inner_->insert(item, now)) return false;
  inserted_at_[item.id] = now;
  note_insert();
  // Entries the inner cache evicted are lazily dropped from inserted_at_ on
  // their next access; the map is advisory only.
  return true;
}

bool TtlCache::erase(ContentId id) {
  inserted_at_.erase(id);
  return inner_->erase(id);
}

void TtlCache::clear() {
  inner_->clear();
  inserted_at_.clear();
}

std::uint64_t TtlCache::object_count() const { return inner_->object_count(); }

// ----------------------------------------------------------------- factory

std::unique_ptr<Cache> make_cache(CachePolicy policy, Megabytes capacity) {
  switch (policy) {
    case CachePolicy::kLru:
      return std::make_unique<LruCache>(capacity);
    case CachePolicy::kLfu:
      return std::make_unique<LfuCache>(capacity);
    case CachePolicy::kFifo:
      return std::make_unique<FifoCache>(capacity);
  }
  throw ConfigError("unknown cache policy");
}

std::string_view to_string(CachePolicy policy) noexcept {
  switch (policy) {
    case CachePolicy::kLru: return "LRU";
    case CachePolicy::kLfu: return "LFU";
    case CachePolicy::kFifo: return "FIFO";
  }
  return "unknown";
}

}  // namespace spacecdn::cdn
