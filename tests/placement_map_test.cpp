// Unit tests for the jump-hash placement map: hash movement properties,
// versioned membership, orbit-aware replica diversity, erasure accounting,
// and the RepairDaemon's delta-repair mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets.hpp"
#include "des/random.hpp"
#include "orbit/walker.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/placement_map.hpp"
#include "spacecdn/resilience.hpp"
#include "util/error.hpp"

namespace spacecdn::space {
namespace {

constexpr Milliseconds kNow{0.0};
constexpr cdn::ContentId kCatalog = 2000;

const orbit::WalkerConstellation& shell1() {
  static const orbit::WalkerConstellation c(orbit::starlink_shell1());
  return c;
}

cdn::ContentItem item(cdn::ContentId id, double mb = 10.0) {
  return cdn::ContentItem{id, Megabytes{mb}, data::Region::kEurope};
}

bool holds_sat(const std::vector<std::uint32_t>& set, std::uint32_t sat) {
  return std::find(set.begin(), set.end(), sat) != set.end();
}

TEST(JumpHash, BucketRangeAndDeterminism) {
  for (std::uint64_t key : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    const std::uint32_t bucket = jump_consistent_hash(key, 100);
    EXPECT_LT(bucket, 100u);
    EXPECT_EQ(bucket, jump_consistent_hash(key, 100));
  }
  EXPECT_EQ(jump_consistent_hash(123, 1), 0u);
}

TEST(JumpHash, GrowthMovesKeysOnlyToTheNewBucket) {
  // The defining jump-hash property: going from n to n+1 buckets, every key
  // either keeps its bucket or moves to the brand-new bucket n.
  for (std::uint32_t n = 1; n < 40; ++n) {
    for (std::uint64_t key = 0; key < 500; ++key) {
      const std::uint32_t before = jump_consistent_hash(key, n);
      const std::uint32_t after = jump_consistent_hash(key, n + 1);
      EXPECT_TRUE(after == before || after == n)
          << "key " << key << " jumped " << before << " -> " << after
          << " growing " << n << " -> " << n + 1;
    }
  }
}

TEST(PlacementMapConfigTest, PolicyAndDiversityParsing) {
  EXPECT_EQ(parse_replica_diversity("plane"), ReplicaDiversity::kPlane);
  EXPECT_EQ(parse_replica_diversity("phase"), ReplicaDiversity::kPhase);
  EXPECT_THROW((void)parse_replica_diversity("shell"), ConfigError);
  EXPECT_EQ(to_string(PlacementPolicy::kJumpEc), "jump-ec");
  EXPECT_EQ(to_string(PlacementPolicy::kPerPlane), "per-plane");
  EXPECT_EQ(to_string(ReplicaDiversity::kPhase), "phase");
}

TEST(PlacementMapConfigTest, RejectsUnsatisfiableConfigs) {
  const orbit::WalkerConstellation& c = shell1();
  PlacementMapConfig cfg;
  cfg.replicas = 0;
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
  cfg = {};
  cfg.replicas = c.plane_count() + 1;  // more placements than planes
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
  cfg = {};
  cfg.diversity = ReplicaDiversity::kPhase;
  cfg.replicas = c.design().sats_per_plane + 1;  // more than phase slots
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
  cfg = {};
  cfg.policy = PlacementPolicy::kJumpEc;
  cfg.ec.data = 0;
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
}

TEST(MembershipMapTest, VersioningAndIdempotence) {
  EXPECT_THROW(MembershipMap(0), ConfigError);
  MembershipMap m(8);
  EXPECT_EQ(m.size(), 8u);
  EXPECT_EQ(m.version(), 0u);
  EXPECT_EQ(m.live_count(), 8u);
  EXPECT_FALSE(m.set_live(3, true));  // already live: no version bump
  EXPECT_EQ(m.version(), 0u);
  EXPECT_TRUE(m.set_live(3, false));
  EXPECT_EQ(m.version(), 1u);
  EXPECT_EQ(m.live_count(), 7u);
  EXPECT_FALSE(m.live(3));
  EXPECT_FALSE(m.set_live(3, false));  // idempotent repeat
  EXPECT_EQ(m.version(), 1u);
  EXPECT_TRUE(m.set_live(3, true));
  EXPECT_EQ(m.version(), 2u);
  EXPECT_EQ(m.live_count(), 8u);
}

TEST(PlacementMapTest, SameMembershipSameReplicas) {
  const orbit::WalkerConstellation& c = shell1();
  const PlacementMap a(c, {});
  const PlacementMap b(c, {});
  for (cdn::ContentId id = 0; id < kCatalog; ++id) {
    const auto holders = a.replicas(id);
    EXPECT_EQ(holders, b.replicas(id));  // pure function of (id, membership)
    EXPECT_EQ(holders, a.replicas_under(id, a.membership().bitmap()));
    EXPECT_EQ(holders.size(), a.placements_per_object());
  }
}

TEST(PlacementMapTest, RemovalMovesOnlyTheFailedSatellitesObjects) {
  PlacementMap map(shell1(), {});
  const std::vector<bool> before = map.membership().bitmap();
  const std::uint32_t failed = map.replicas(0)[0];  // known to hold object 0
  ASSERT_TRUE(map.membership().set_live(failed, false));
  std::uint64_t touched = 0;
  for (cdn::ContentId id = 0; id < kCatalog; ++id) {
    const auto old_set = map.replicas_under(id, before);
    const auto now_set = map.replicas(id);
    EXPECT_FALSE(holds_sat(now_set, failed));
    if (holds_sat(old_set, failed)) {
      ++touched;
    } else {
      // The strict minimal-movement property: an object that never lived on
      // the failed satellite keeps every holder, in order.
      EXPECT_EQ(now_set, old_set) << "object " << id << " moved needlessly";
    }
  }
  // Expected fraction is replicas/N (~4/1584); allow generous slack.
  EXPECT_GE(touched, 1u);
  EXPECT_LT(touched, kCatalog / 20);
}

TEST(PlacementMapTest, BaselinePolicyReshufflesNearlyEverything) {
  PlacementMapConfig cfg;
  cfg.policy = PlacementPolicy::kBaseline;
  PlacementMap map(shell1(), cfg);
  const std::vector<bool> before = map.membership().bitmap();
  ASSERT_TRUE(map.membership().set_live(7, false));
  std::uint64_t changed = 0;
  for (cdn::ContentId id = 0; id < kCatalog; ++id) {
    if (map.replicas(id) != map.replicas_under(id, before)) ++changed;
  }
  // The mod-live-count strawman renumbers nearly the whole catalog on a
  // single flip -- the pathology the jump policy exists to avoid.
  EXPECT_GT(changed, kCatalog * 9 / 10);
}

TEST(PlacementMapTest, PlaneDiversityHoldsOnEveryPreset) {
  for (const std::string& name : orbit::constellation_preset_names()) {
    const orbit::WalkerConstellation c(orbit::multi_shell_preset(name));
    PlacementMapConfig cfg;
    cfg.replicas = std::min<std::uint32_t>(4, c.plane_count());
    const PlacementMap map(c, cfg);
    for (cdn::ContentId id = 0; id < 500; ++id) {
      const auto holders = map.replicas(id);
      std::set<std::uint32_t> planes;
      for (const std::uint32_t sat : holders) planes.insert(c.plane_of(sat));
      EXPECT_EQ(planes.size(), holders.size())
          << "plane collision on preset " << name << ", object " << id;
    }
  }
}

TEST(PlacementMapTest, PhaseDiversityAlsoSeparatesInPlaneSlots) {
  const orbit::WalkerConstellation& c = shell1();
  PlacementMapConfig cfg;
  cfg.diversity = ReplicaDiversity::kPhase;
  const PlacementMap map(c, cfg);
  for (cdn::ContentId id = 0; id < 500; ++id) {
    const auto holders = map.replicas(id);
    std::set<std::uint32_t> planes;
    std::set<std::uint32_t> slots;
    for (const std::uint32_t sat : holders) {
      planes.insert(c.plane_of(sat));
      slots.insert(c.index_of(sat).in_plane);
    }
    EXPECT_EQ(planes.size(), holders.size());
    EXPECT_EQ(slots.size(), holders.size());
  }
}

TEST(PlacementMapTest, ErasureAccounting) {
  PlacementMapConfig cfg;
  cfg.policy = PlacementPolicy::kJumpEc;
  const PlacementMap map(shell1(), cfg);
  EXPECT_EQ(map.placements_per_object(), 6u);  // 4 data + 2 parity fragments
  EXPECT_EQ(map.min_live_for_read(), 4u);
  EXPECT_EQ(map.replicas(1).size(), 6u);
  EXPECT_NEAR(map.stored_bytes(item(1, 100.0)).value(), 25.0, 1e-9);
  EXPECT_NEAR(cfg.ec.overhead(), 1.5, 1e-9);
}

TEST(PlacementMapTest, PlaceInsertsIntoEveryHolder) {
  const orbit::WalkerConstellation& c = shell1();
  FleetConfig fleet_cfg;
  fleet_cfg.capacity_per_satellite = Megabytes{1000.0};
  SatelliteFleet fleet(c.size(), fleet_cfg);
  const PlacementMap map(c, {});
  map.place(fleet, item(42), kNow);
  for (const std::uint32_t sat : map.replicas(42)) {
    EXPECT_TRUE(fleet.cache(sat).contains(42));
  }
}

TEST(PlacementMapTest, LoadSkewAndHopStats) {
  const PlacementMap map(shell1(), {});
  const auto skew = map.load_skew(kCatalog);
  const double expected_mean =
      static_cast<double>(kCatalog) * 4.0 / static_cast<double>(shell1().size());
  EXPECT_NEAR(skew.mean, expected_mean, 1e-9);
  EXPECT_GE(skew.max, skew.p99);
  EXPECT_GE(skew.p99_over_mean(), 1.0);
  des::Rng rng(42);
  const auto hops = map.analyze(200, kCatalog, rng);
  EXPECT_GT(hops.mean_hops, 0.0);
  EXPECT_GE(hops.p99_hops, hops.mean_hops);
  EXPECT_GE(static_cast<double>(hops.max_hops), hops.p99_hops);
}

TEST(PlacementMapTest, PerPlaneLayoutIsPinned) {
  // The paper's layout on Shell 1 (4 copies in every plane), pinned so the
  // per-plane policy keeps reproducing the published placement checksums.
  const PlacementMap map(shell1(), {.policy = PlacementPolicy::kPerPlane, .replicas = 4});
  const std::vector<std::uint32_t> expected{
      8, 13, 19, 2, 43, 26, 32, 37, 48, 53, 59, 64, 82, 87, 71, 76, 99, 104, 88, 93,
      114, 119, 125, 130, 137, 142, 148, 153, 166, 171, 155, 160, 193, 176, 182, 187,
      218, 201, 207, 212, 233, 238, 222, 227, 246, 251, 257, 262, 275, 280, 264, 269,
      288, 293, 299, 304, 323, 328, 312, 317, 330, 335, 341, 346, 371, 354, 360, 365,
      390, 395, 379, 384, 417, 400, 406, 411, 435, 418, 424, 429, 456, 461, 445, 450,
      465, 470, 476, 481, 494, 499, 505, 488, 506, 511, 517, 522, 543, 548, 532, 537,
      553, 558, 564, 569, 591, 574, 580, 585, 614, 597, 603, 608, 637, 620, 626, 631,
      642, 647, 653, 658, 677, 660, 666, 671, 694, 699, 683, 688, 721, 704, 710, 715,
      732, 737, 743, 726, 749, 754, 760, 765, 775, 780, 786, 791, 804, 809, 793, 798,
      835, 818, 824, 829, 852, 857, 841, 846, 865, 870, 876, 859, 886, 891, 897, 880,
      921, 904, 910, 915, 924, 929, 935, 940, 959, 964, 948, 953, 986, 969, 975, 980,
      993, 998, 1004, 1009, 1030, 1013, 1019, 1024, 1048, 1053, 1037, 1042, 1077, 1060,
      1066, 1071, 1088, 1093, 1099, 1082, 1101, 1106, 1112, 1117, 1137, 1142, 1126,
      1131, 1146, 1151, 1157, 1162, 1180, 1185, 1169, 1174, 1188, 1193, 1199, 1204,
      1229, 1212, 1218, 1223, 1242, 1247, 1253, 1236, 1267, 1272, 1256, 1261, 1286,
      1291, 1297, 1280, 1303, 1308, 1314, 1319, 1334, 1339, 1323, 1328, 1363, 1346,
      1352, 1357, 1372, 1377, 1383, 1366, 1387, 1392, 1398, 1403, 1418, 1423, 1429,
      1412, 1439, 1444, 1450, 1433, 1472, 1455, 1461, 1466, 1484, 1489, 1495, 1478,
      1501, 1506, 1512, 1517, 1538, 1521, 1527, 1532, 1543, 1548, 1554, 1559, 1562,
      1567, 1573, 1578};
  EXPECT_EQ(map.replicas(123), expected);
  EXPECT_EQ(map.placements_per_object(), expected.size());
}

TEST(RepairDaemonMapMode, DeltaRepairMovesOnlyTheDelta) {
  const orbit::WalkerConstellation& c = shell1();
  FleetConfig fleet_cfg;
  fleet_cfg.capacity_per_satellite = Megabytes{100'000.0};
  SatelliteFleet fleet(c.size(), fleet_cfg);
  PlacementMap map(c, {});
  std::vector<cdn::ContentItem> catalog;
  for (cdn::ContentId id = 0; id < 300; ++id) catalog.push_back(item(id));
  for (const cdn::ContentItem& it : catalog) map.place(fleet, it, kNow);

  RepairDaemon daemon(fleet, map, catalog);
  const RepairReport clean = daemon.run_once(kNow);
  EXPECT_EQ(clean.under_replicated, 0u);
  EXPECT_EQ(clean.moved, 0u);
  EXPECT_EQ(clean.bytes_moved_mb, 0.0);

  const std::vector<bool> before = map.membership().bitmap();
  const std::uint32_t failed = map.replicas(0)[0];  // holds at least object 0
  ASSERT_TRUE(map.membership().set_live(failed, false));
  std::uint64_t displaced = 0;
  for (const cdn::ContentItem& it : catalog) {
    displaced += holds_sat(map.replicas_under(it.id, before), failed) ? 1 : 0;
  }
  ASSERT_GE(displaced, 1u);

  const RepairReport delta = daemon.run_once(kNow);
  EXPECT_EQ(delta.moved, displaced);          // one new home per displaced copy
  EXPECT_EQ(delta.evicted_stale, displaced);  // the failed holder is dropped
  EXPECT_NEAR(delta.bytes_moved_mb, 10.0 * static_cast<double>(displaced), 1e-9);

  // A follow-up scan with no membership change moves nothing.
  const RepairReport quiet = daemon.run_once(kNow);
  EXPECT_EQ(quiet.moved, 0u);
  EXPECT_EQ(quiet.under_replicated, 0u);
  EXPECT_EQ(quiet.bytes_moved_mb, 0.0);
}

/// The repair scan as it was before RepairDaemon kept its holder sets: it
/// recomputed both snapshots' holder sets per object on every scan, and
/// closed a crash by recomputing every object's holder set per open crash.
/// Kept as the reference RepairDaemon must match exactly.
class ReferenceRepairDaemon {
 public:
  ReferenceRepairDaemon(SatelliteFleet& fleet, const PlacementMap& map,
                        std::vector<cdn::ContentItem> catalog)
      : fleet_(&fleet),
        map_(&map),
        catalog_(std::move(catalog)),
        synced_live_(map.membership().bitmap()),
        synced_version_(map.membership().version()) {}

  void note_crash(std::uint32_t sat, Milliseconds at) {
    open_crashes_.emplace_back(sat, at);
  }

  RepairReport run_once(Milliseconds now) {
    RepairReport report;
    audit(now, report);
    totals_ += report;
    std::erase_if(open_crashes_, [&](const auto& crash) {
      if (!fully_replicated_on(crash.first)) return false;
      time_to_repair_.push_back((now - crash.second).value());
      return true;
    });
    return report;
  }

  [[nodiscard]] const RepairReport& totals() const { return totals_; }
  [[nodiscard]] std::size_t open_crashes() const { return open_crashes_.size(); }
  [[nodiscard]] const std::vector<double>& time_to_repair() const {
    return time_to_repair_;
  }

 private:
  [[nodiscard]] bool fully_replicated_on(std::uint32_t sat) const {
    if (!fleet_->cache_enabled(sat)) return false;
    for (const cdn::ContentItem& item : catalog_) {
      const auto replicas = map_->replicas(item.id);
      if (std::find(replicas.begin(), replicas.end(), sat) == replicas.end()) continue;
      if (!fleet_->cache(sat).contains(item.id)) return false;
    }
    return true;
  }

  void audit(Milliseconds now, RepairReport& report) {
    const MembershipMap& membership = map_->membership();
    const bool delta = membership.version() != synced_version_;
    for (const cdn::ContentItem& item : catalog_) {
      ++report.objects_scanned;
      const auto now_set = map_->replicas(item.id);
      std::vector<std::uint32_t> old_set;
      if (delta) old_set = map_->replicas_under(item.id, synced_live_);

      cdn::ContentItem stored = item;
      stored.size = map_->stored_bytes(item);
      for (const std::uint32_t slot : now_set) {
        if (fleet_->holds(slot, item.id)) continue;
        if (!fleet_->cache_enabled(slot)) {
          ++report.unrepairable;
          continue;
        }
        ++report.under_replicated;
        const bool is_move =
            delta && std::find(old_set.begin(), old_set.end(), slot) == old_set.end();
        const bool space_source =
            std::any_of(now_set.begin(), now_set.end(), [&](std::uint32_t other) {
              return other != slot && fleet_->holds(other, item.id);
            });
        if (fleet_->cache(slot).insert(stored, now)) {
          (space_source ? report.re_replicated : report.ground_refills) += 1;
          if (is_move) ++report.moved;
          report.bytes_moved_mb += stored.size.value();
        } else {
          ++report.unrepairable;
        }
      }
      if (delta) {
        for (const std::uint32_t slot : old_set) {
          if (std::find(now_set.begin(), now_set.end(), slot) != now_set.end()) continue;
          if (!fleet_->cache_enabled(slot)) continue;
          if (fleet_->cache(slot).erase(item.id)) ++report.evicted_stale;
        }
      }
    }
    synced_live_ = membership.bitmap();
    synced_version_ = membership.version();
  }

  SatelliteFleet* fleet_;
  const PlacementMap* map_;
  std::vector<cdn::ContentItem> catalog_;
  RepairReport totals_;
  std::vector<std::pair<std::uint32_t, Milliseconds>> open_crashes_;
  std::vector<double> time_to_repair_;
  std::vector<bool> synced_live_;
  std::uint64_t synced_version_ = 0;
};

/// One fleet + map pair driven by the churn storm below.
struct StormSide {
  StormSide(const orbit::WalkerConstellation& c, const PlacementMapConfig& config,
            Megabytes capacity)
      : fleet(c.size(), FleetConfig{capacity, cdn::CachePolicy::kLru}), map(c, config) {}
  SatelliteFleet fleet;
  PlacementMap map;
};

void expect_same_fleet(const SatelliteFleet& a, const SatelliteFleet& b,
                       const std::vector<cdn::ContentItem>& catalog) {
  for (std::uint32_t sat = 0; sat < a.size(); ++sat) {
    ASSERT_EQ(a.cache_enabled(sat), b.cache_enabled(sat)) << "sat " << sat;
    ASSERT_EQ(a.cache(sat).object_count(), b.cache(sat).object_count()) << "sat " << sat;
    ASSERT_EQ(a.cache(sat).used().value(), b.cache(sat).used().value()) << "sat " << sat;
    for (const cdn::ContentItem& it : catalog) {
      ASSERT_EQ(a.cache(sat).contains(it.id), b.cache(sat).contains(it.id))
          << "sat " << sat << " object " << it.id;
    }
  }
}

TEST(RepairDaemonEquivalence, MatchesTheRecomputingScanUnderAChurnStorm) {
  // Two identical fleet+map pairs on the 8x8 test shell, one repaired by the
  // reference scan and one by RepairDaemon, fed the same seeded storm of
  // membership flips (mirrored and not), cache crashes, restores, outages,
  // pull-through copies and scans.  The 6 MB fleet is small enough that
  // repair installs evict other objects' copies, and object 0 never fits.
  const orbit::WalkerConstellation c(orbit::test_shell());
  struct Case {
    PlacementMapConfig config;
    double capacity_mb;
  };
  const std::vector<Case> cases{
      {{.policy = PlacementPolicy::kBaseline}, 1000.0},
      {{.policy = PlacementPolicy::kJump}, 1000.0},
      {{.policy = PlacementPolicy::kJump, .diversity = ReplicaDiversity::kPhase}, 1000.0},
      {{.policy = PlacementPolicy::kJumpEc}, 1000.0},
      {{.policy = PlacementPolicy::kPerPlane, .replicas = 2}, 1000.0},
      {{.policy = PlacementPolicy::kJump}, 6.0},
      {{.policy = PlacementPolicy::kPerPlane, .replicas = 1, .plane_stride = 2}, 6.0},
  };
  std::vector<cdn::ContentItem> catalog{item(0, 50.0)};
  for (cdn::ContentId id = 1; id < 40; ++id) {
    catalog.push_back(item(id, 1.0 + static_cast<double>(id % 4)));
  }

  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& tc = cases[k];
    SCOPED_TRACE("case " + std::to_string(k) + ": " +
                 std::string(to_string(tc.config.policy)) + ", " +
                 std::to_string(tc.capacity_mb) + " MB");
    StormSide ref_side(c, tc.config, Megabytes{tc.capacity_mb});
    StormSide new_side(c, tc.config, Megabytes{tc.capacity_mb});
    for (const cdn::ContentItem& it : catalog) {
      ref_side.map.place(ref_side.fleet, it, kNow);
      new_side.map.place(new_side.fleet, it, kNow);
    }
    ReferenceRepairDaemon reference(ref_side.fleet, ref_side.map, catalog);
    RepairDaemon daemon(new_side.fleet, new_side.map, catalog);

    des::Rng rng(1700 + k);
    double now = 0.0;
    for (int step = 0; step < 600; ++step) {
      now += 10.0;
      const Milliseconds at{now};
      const auto sat = static_cast<std::uint32_t>(rng.uniform_int(0, c.size() - 1));
      const bool flag = rng.chance(0.5);
      const auto object =
          static_cast<std::size_t>(rng.uniform_int(0, catalog.size() - 1));
      const auto op = rng.uniform_int(0, 6);
      for (StormSide* side : {&ref_side, &new_side}) {
        switch (op) {
          case 0:
            side->fleet.crash_cache(sat);
            break;
          case 1:
            side->fleet.restore_cache(sat);
            break;
          case 2:
            side->fleet.set_online(sat, flag);
            break;
          case 3:  // the churn controller mirroring cache liveness
            (void)side->map.membership().set_live(sat, side->fleet.cache_enabled(sat));
            break;
          case 4:  // a flip the fleet has not caught up with
            (void)side->map.membership().set_live(sat, flag);
            break;
          case 5:  // a pull-through copy outside the map
            if (side->fleet.cache_enabled(sat)) {
              (void)side->fleet.cache(sat).insert(catalog[object], at);
            }
            break;
          default:
            break;
        }
      }
      if (op == 0) {
        reference.note_crash(sat, at);
        daemon.note_crash(sat, at);
      }
      if (op != 6) continue;
      const RepairReport want = reference.run_once(at);
      const RepairReport got = daemon.run_once(at);
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_EQ(daemon.totals(), reference.totals()) << "step " << step;
      ASSERT_EQ(daemon.open_crashes(), reference.open_crashes()) << "step " << step;
      ASSERT_EQ(daemon.time_to_repair().raw(), reference.time_to_repair())
          << "step " << step;
      expect_same_fleet(ref_side.fleet, new_side.fleet, catalog);
      if (HasFatalFailure()) return;
    }
    // The storm reached every decision the scan makes.
    EXPECT_GT(reference.time_to_repair().size(), 0u);
    EXPECT_GT(reference.totals().re_replicated, 0u);
    EXPECT_GT(reference.totals().unrepairable, 0u);
    if (tc.config.policy != PlacementPolicy::kPerPlane) {
      EXPECT_GT(reference.totals().moved, 0u);
      EXPECT_GT(reference.totals().evicted_stale, 0u);
    }
    if (tc.capacity_mb < 10.0) {
      EXPECT_GT(ref_side.fleet.aggregate_stats().evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace spacecdn::space
