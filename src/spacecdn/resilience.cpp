#include "spacecdn/resilience.hpp"

#include <algorithm>
#include <string>

#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace spacecdn::space {

namespace {

/// One fault transition into the registry, labelled by component class.
void count_fault(const char* component, bool fail) {
  if (auto* m = obs::metrics()) {
    m->counter("spacecdn_fault_events_total",
               {{"component", component}, {"transition", fail ? "fail" : "recover"}})
        .inc();
  }
}

}  // namespace

// ---------------------------------------------------------- ChurnController

ChurnController::ChurnController(lsn::StarlinkNetwork& network, SatelliteFleet& fleet)
    : network_(&network),
      fleet_(&fleet),
      sat_down_(fleet.size(), false),
      isl_flapped_(fleet.size(), false) {
  SPACECDN_EXPECT(network.constellation().size() == fleet.size(),
                  "fleet must match the constellation");
}

void ChurnController::set_membership(MembershipMap* membership) {
  membership_ = membership;
  if (membership_ == nullptr) return;
  SPACECDN_EXPECT(membership_->size() == fleet_->size(),
                  "membership map must match the fleet");
  for (std::uint32_t sat = 0; sat < fleet_->size(); ++sat) sync_membership(sat);
}

void ChurnController::sync_membership(std::uint32_t sat) {
  if (membership_ == nullptr) return;
  (void)membership_->set_live(sat, fleet_->cache_enabled(sat));
}

void ChurnController::sync_isl(std::uint32_t sat) {
  const bool want_failed = sat_down_[sat] || isl_flapped_[sat];
  if (want_failed && !network_->isl().is_failed(sat)) {
    network_->fail_satellite(sat);
  } else if (!want_failed && network_->isl().is_failed(sat)) {
    network_->recover_satellite(sat);
  }
}

void ChurnController::apply(const faults::FaultEvent& event) {
  using faults::Component;
  using faults::Transition;
  const bool fail = event.transition == Transition::kFail;
  switch (event.component) {
    case Component::kSatellite: {
      const std::uint32_t sat = event.target;
      SPACECDN_EXPECT(sat < sat_down_.size(), "satellite id out of range");
      if (sat_down_[sat] == fail) return;  // idempotent
      sat_down_[sat] = fail;
      sats_down_ += fail ? 1 : -1;
      fleet_->set_online(sat, !fail);
      sync_isl(sat);
      sync_membership(sat);
      (fail ? counters_.satellite_failures : counters_.satellite_recoveries) += 1;
      count_fault("satellite", fail);
      if (auto* m = obs::metrics()) {
        m->gauge("spacecdn_satellites_down").set(static_cast<double>(sats_down_));
      }
      return;
    }
    case Component::kIslTerminal: {
      const std::uint32_t sat = event.target;
      SPACECDN_EXPECT(sat < isl_flapped_.size(), "satellite id out of range");
      if (isl_flapped_[sat] == fail) return;
      isl_flapped_[sat] = fail;
      sync_isl(sat);
      (fail ? counters_.isl_flaps : counters_.isl_flap_recoveries) += 1;
      count_fault("isl-terminal", fail);
      return;
    }
    case Component::kGroundStation: {
      network_->set_gateway_failed(event.target, fail);
      (fail ? counters_.gateway_failures : counters_.gateway_recoveries) += 1;
      count_fault("ground-station", fail);
      return;
    }
    case Component::kCacheNode: {
      if (fail) {
        fleet_->crash_cache(event.target);
        ++counters_.cache_crashes;
      } else {
        fleet_->restore_cache(event.target);
        ++counters_.cache_restores;
      }
      sync_membership(event.target);
      count_fault("cache-node", fail);
      return;
    }
  }
  throw ConfigError("unknown fault component");
}

// -------------------------------------------------------------- RepairDaemon

RepairReport& RepairReport::operator+=(const RepairReport& other) noexcept {
  objects_scanned += other.objects_scanned;
  under_replicated += other.under_replicated;
  re_replicated += other.re_replicated;
  ground_refills += other.ground_refills;
  unrepairable += other.unrepairable;
  moved += other.moved;
  evicted_stale += other.evicted_stale;
  bytes_moved_mb += other.bytes_moved_mb;
  return *this;
}

RepairDaemon::RepairDaemon(SatelliteFleet& fleet, const PlacementMap& map,
                           std::vector<cdn::ContentItem> catalog, RepairConfig config)
    : fleet_(&fleet),
      map_(&map),
      catalog_(std::move(catalog)),
      config_(config),
      synced_live_(map.membership().bitmap()),
      synced_version_(map.membership().version()) {
  SPACECDN_EXPECT(config_.scan_interval.value() > 0.0,
                  "repair scan interval must be positive");
  SPACECDN_EXPECT(map.membership().size() == fleet.size(),
                  "placement map must cover the fleet");
}

void RepairDaemon::note_crash(std::uint32_t sat, Milliseconds at) {
  open_crashes_.emplace_back(sat, at);
}

bool RepairDaemon::fully_replicated_on(std::uint32_t sat) const {
  if (!fleet_->cache_enabled(sat)) return false;
  for (const cdn::ContentItem& item : catalog_) {
    const auto replicas = map_->replicas(item.id);
    if (std::find(replicas.begin(), replicas.end(), sat) == replicas.end()) continue;
    if (!fleet_->cache(sat).contains(item.id)) return false;
  }
  return true;
}

void RepairDaemon::audit(Milliseconds now, RepairReport& report) {
  const MembershipMap& membership = map_->membership();
  // The jump policies only assign live satellites: a failed satellite's
  // objects are re-routed the moment membership flips, and flow back just as
  // minimally on recovery.  The fixed per-plane layout ignores membership,
  // so its holder sets never differ between snapshots; a dark holder is
  // deferred below until it comes back.
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
        // The slot is dark (a fixed-layout holder that is offline, crashed or
        // duty-disabled, or a flip not yet mirrored into the membership):
        // nothing to copy onto until a later scan finds it back up.
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
        ++report.unrepairable;  // fragment/object larger than the slot's cache
      }
    }
    if (delta) {
      // Capacity follows the map: drop copies from satellites this object no
      // longer lives on (a local delete -- no repair traffic).
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

RepairReport RepairDaemon::run_once(Milliseconds now) {
  RepairReport report;
  audit(now, report);
  ++scans_;
  totals_ += report;
  if (auto* m = obs::metrics()) {
    m->counter("spacecdn_repair_objects_scanned_total").inc(report.objects_scanned);
    m->counter("spacecdn_repair_under_replicated_total").inc(report.under_replicated);
    m->counter("spacecdn_repair_re_replicated_total").inc(report.re_replicated);
    m->counter("spacecdn_repair_ground_refills_total").inc(report.ground_refills);
    m->counter("spacecdn_repair_unrepairable_total").inc(report.unrepairable);
    m->counter("spacecdn_repair_moved_total").inc(report.moved);
    // Fractional megabytes: a gauge, since Counter::inc would truncate them.
    // Added per scan, so the registry sums every daemon it serves exactly as
    // the counters above do (one daemon: equal to totals().bytes_moved_mb).
    // MetricsRegistry::merge folds gauges with set(), so merging per-worker
    // registries must sum this family instead of keeping the last value.
    m->gauge("spacecdn_repair_bytes_moved_mb").add(report.bytes_moved_mb);
    m->gauge("spacecdn_repair_open_crashes").set(static_cast<double>(open_crashes_.size()));
  }
  // Close every crash whose satellite is back up and fully re-replicated.
  std::erase_if(open_crashes_, [&](const std::pair<std::uint32_t, Milliseconds>& crash) {
    if (!fully_replicated_on(crash.first)) return false;
    time_to_repair_.add((now - crash.second).value());
    return true;
  });
  return report;
}

void RepairDaemon::install(des::Simulator& sim, Milliseconds horizon) {
  for (Milliseconds t = config_.scan_interval; t <= horizon; t += config_.scan_interval) {
    sim.schedule_at(t, [this, t] { (void)run_once(t); });
  }
}

}  // namespace spacecdn::space
