// Replica placement: one engine, four layout policies, churn-minimal
// rebalancing.
//
//  * kPerPlane -- the paper's fixed layout (section 4): Shell 1 has 72 planes
//    of 22 satellites, so "with around 4 copies distributed within each
//    plane, an object can be reachable within 5 hops".  Copies are spread
//    evenly within every `plane_stride`-th plane with a per-object rotation.
//    The layout is membership-unaware, like the paper's: a dark holder keeps
//    its slot and the repair daemon defers it until the satellite returns.
//
//  * MembershipMap -- a versioned liveness bitmap over the satellite ids.
//    Satellites enter and leave as faults and duty cycles flip them; every
//    change bumps the version, so consumers can detect staleness in O(1).
//
//  * kJump -- a deterministic object -> satellite map over a membership
//    snapshot, in the spirit of DAOS's jump-map placement.  Replica r of
//    object o is assigned by jump_consistent_hash over the *full* id space,
//    deterministically re-probing while the candidate is dead or violates
//    the diversity constraint.  Because probe sequences are per-(object,
//    replica) and independent of the live count, one membership change only
//    moves the objects whose probe sequence actually crossed the flipped
//    satellite: O(1/N) of the catalog, versus the naive mod-live-count
//    kBaseline policy that reshuffles nearly everything (kept as the
//    measurable strawman the ablation bench compares against).
//
//  * Orbit-aware diversity -- jump replicas are forced onto pairwise-distinct
//    orbital planes (kPlane) or distinct planes *and* distinct in-plane
//    phase slots (kPhase), so a plane-level fault domain (faults/domains
//    plane_domain) can never hold every copy of an object.
//
//  * Erasure-coded striping (kJumpEc) -- instead of whole-object replicas,
//    an object is cut into an ErasureProfile's data+parity fragments
//    (striping.hpp), one fragment per satellite, spread with the same
//    diversity rule.  Storage cost drops from replicas x to (k+m)/k x; an
//    object stays readable while any `data` fragments survive.
//
// RepairDaemon (resilience.hpp) audits the map in delta mode: it keeps each
// object's holder set under the membership version it last synced and, when
// the version moves, recomputes the sets and moves only the (object, slot)
// pairs that changed -- the "bytes moved per churn cycle" metric of
// bench/ablation_placement_map.  Under kPerPlane the sets never change, so
// the audit reduces to restoring crash-lost copies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/content.hpp"
#include "des/random.hpp"
#include "orbit/walker.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/striping.hpp"

namespace spacecdn::space {

/// Lamping & Veach's jump consistent hash: maps `key` to a bucket in
/// [0, buckets) such that growing the bucket count moves only ~1/buckets of
/// the keys.  Deterministic, stateless, O(ln buckets).
[[nodiscard]] std::uint32_t jump_consistent_hash(std::uint64_t key,
                                                 std::uint32_t buckets) noexcept;

/// Placement policy of a PlacementMap.
enum class PlacementPolicy {
  /// Naive membership-aware recompute: replicas are evenly spaced over the
  /// *live* satellite list, so any liveness change renumbers nearly every
  /// assignment.  Kept as the re-place-everything ablation baseline.
  kBaseline,
  /// Jump consistent hashing with deterministic re-probing: one membership
  /// change moves O(1/N) of objects.
  kJump,
  /// Jump placement of erasure-coded fragments instead of whole replicas.
  kJumpEc,
  /// The paper's fixed layout: `replicas` evenly spaced copies in every
  /// `plane_stride`-th orbital plane.  Membership-unaware: holders never
  /// move when satellites fail; dark holders wait for repair.
  kPerPlane,
};

[[nodiscard]] std::string_view to_string(PlacementPolicy policy) noexcept;

/// How strictly replicas must spread across the orbit geometry.
enum class ReplicaDiversity {
  kPlane,  ///< pairwise-distinct orbital planes
  kPhase,  ///< distinct planes AND distinct in-plane phase slots
};

[[nodiscard]] std::string_view to_string(ReplicaDiversity diversity) noexcept;
/// @throws spacecdn::ConfigError on an unknown name ("plane"/"phase").
[[nodiscard]] ReplicaDiversity parse_replica_diversity(const std::string& name);

/// Versioned satellite-liveness map.  A satellite is a placement member
/// while it is online, its cache process is up, and it is duty-cycle
/// enabled; ChurnController keeps the map in sync with fault events.
class MembershipMap {
 public:
  /// All satellites start live at version 0.
  /// @throws spacecdn::ConfigError on an empty constellation.
  explicit MembershipMap(std::uint32_t satellite_count);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(live_.size());
  }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] bool live(std::uint32_t sat) const;
  [[nodiscard]] std::uint32_t live_count() const noexcept { return live_count_; }

  /// Flips one satellite's membership.  Returns whether liveness actually
  /// changed (and therefore whether the version was bumped); redundant
  /// calls are idempotent and free.
  bool set_live(std::uint32_t sat, bool live);

  /// The liveness bitmap, usable as a snapshot basis for
  /// PlacementMap::replicas_under (copy it to freeze a version).
  [[nodiscard]] const std::vector<bool>& bitmap() const noexcept { return live_; }

 private:
  std::vector<bool> live_;
  std::uint32_t live_count_ = 0;
  std::uint64_t version_ = 0;
};

/// Placement-map configuration.
struct PlacementMapConfig {
  PlacementPolicy policy = PlacementPolicy::kJump;
  /// Whole-object copies per object (kBaseline / kJump), or per selected
  /// plane (kPerPlane).
  std::uint32_t replicas = 4;
  /// Replica spread of kJump / kJumpEc (ignored by kBaseline / kPerPlane).
  ReplicaDiversity diversity = ReplicaDiversity::kPlane;
  /// Fragment geometry of the kJumpEc mode (data + parity fragments, one
  /// satellite each).
  ErasureProfile ec = {};
  /// Jump re-probe budget before the deterministic linear fallback kicks in
  /// (only reachable when diversity constraints leave very few candidates).
  std::uint32_t max_probe_attempts = 64;
  /// kPerPlane only: place copies in every n-th global plane (1 = every
  /// plane).  Cross-plane ISLs make sparser layouts viable.
  std::uint32_t plane_stride = 1;
};

/// Deterministic object -> satellite placement over a versioned membership.
class PlacementMap {
 public:
  /// @throws spacecdn::ConfigError when the config asks for more placements
  /// than the constellation has planes (diversity would be unsatisfiable),
  /// or for zero replicas / an invalid erasure profile.  Under kPerPlane:
  /// on more copies than satellites in a plane, or a plane stride outside
  /// [1, plane_count].
  PlacementMap(const orbit::WalkerConstellation& constellation,
               PlacementMapConfig config);

  [[nodiscard]] const PlacementMapConfig& config() const noexcept { return config_; }
  [[nodiscard]] MembershipMap& membership() noexcept { return membership_; }
  [[nodiscard]] const MembershipMap& membership() const noexcept {
    return membership_;
  }

  /// Placements per object: `replicas` whole copies, data+parity fragments
  /// under kJumpEc, or `replicas` per selected plane under kPerPlane.
  [[nodiscard]] std::uint32_t placements_per_object() const noexcept;

  /// Live placements an object needs to stay readable: 1 whole copy, or
  /// `ec.data` fragments under kJumpEc.
  [[nodiscard]] std::uint32_t min_live_for_read() const noexcept;

  /// Bytes one holder stores for `item`: the full object, or one fragment
  /// (size / ec.data) under kJumpEc.
  [[nodiscard]] Megabytes stored_bytes(const cdn::ContentItem& item) const noexcept;

  /// Holder satellites of `id` under the current membership, in placement
  /// order.  Deterministic: same membership version => identical result.
  /// kPerPlane ignores membership: its holders are fixed per object, and a
  /// holder may be dark.
  [[nodiscard]] std::vector<std::uint32_t> replicas(cdn::ContentId id) const;

  /// Holders under an explicit liveness snapshot (what-if analysis).
  /// `live` must have one entry per satellite.
  [[nodiscard]] std::vector<std::uint32_t> replicas_under(
      cdn::ContentId id, const std::vector<bool>& live) const;

  /// Inserts `item` (or its fragments) into every current holder's cache.
  void place(SatelliteFleet& fleet, const cdn::ContentItem& item,
             Milliseconds now) const;

  /// Per-satellite assignment-count skew over a catalog prefix [0, size):
  /// mean, p99, and max of placements per *live* satellite.  Uniformity is
  /// the placement-quality half of the DAOS pl_bench measurement.
  struct LoadSkew {
    double mean = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    [[nodiscard]] double p99_over_mean() const noexcept {
      return mean > 0.0 ? p99 / mean : 0.0;
    }
  };
  [[nodiscard]] LoadSkew load_skew(std::uint64_t catalog_size) const;

  /// Hop-distance statistics to the nearest holder, over `probes`
  /// random (satellite, object) pairs -- the hit-distance half of placement
  /// quality.
  struct HopStats {
    double mean_hops = 0.0;
    std::uint32_t max_hops = 0;
    double p99_hops = 0.0;
  };
  [[nodiscard]] HopStats analyze(std::uint32_t probes, std::uint64_t catalog_size,
                                 des::Rng& rng) const;

  /// Exact +grid hop distance between two satellites (UINT32_MAX across
  /// shells, where no grid ISLs exist).
  [[nodiscard]] std::uint32_t grid_hop_distance(std::uint32_t a,
                                                std::uint32_t b) const;

 private:
  /// Appends the placement for (id, slot r) under `live` to `chosen`.
  void pick_jump(cdn::ContentId id, std::uint32_t r, const std::vector<bool>& live,
                 std::vector<std::uint32_t>& chosen) const;
  [[nodiscard]] bool diversity_ok(std::uint32_t candidate,
                                  const std::vector<std::uint32_t>& chosen) const;

  const orbit::WalkerConstellation* constellation_;
  PlacementMapConfig config_;
  MembershipMap membership_;
};

}  // namespace spacecdn::space
