// Ablation: compound failures under load (chaos scenarios).
//
// Drives the request-level load engine through a correlated incident -- a
// fault domain going down mid-run while the affected population's traffic
// surges -- and measures whether the resilience stack (deadline-budgeted
// retries, hedged fetches, per-gateway circuit breakers, hot-satellite
// degradation with shed-to-ground) turns a compound failure into a bounded
// tail instead of an availability cliff.  Three scripted scenarios, chosen
// with --chaos:
//
//   disaster-region       every gateway within --chaos-radius-km of the
//                         epicentre fails for the chaos window while
//                         in-region cities offer --chaos-surge x traffic
//                         (hurricane + reload storm);
//   solar-storm           a --chaos-fraction slice of the whole
//                         constellation drops at once (mass-failure day),
//                         no surge -- the event is global;
//   flash-crowd-failover  one orbital plane dies under the regional surge
//                         (rollout gone bad during a flash crowd).
//
// Each scenario runs twice from identical worlds and fault timelines:
// resilience ON (the spec's resilient-fetch/deadline/hedge/breaker/shed
// settings) and ablated OFF (the plain three-tier fetch; the deadline SLO is
// still *measured* so the miss rates compare).  Points shard across the
// pool and merge in order, so the FNV-1a checksum is bit-identical for any
// --threads value (CI gates serial vs parallel like fig7/fig9).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "faults/domains.hpp"
#include "load/load_runner.hpp"
#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"
#include "sim/runner.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

struct ChaosPoint {
  load::LoadReport report;
  space::ChurnController::Counters churn;
};

/// The scenario's correlated fault timeline, composed with the spec's
/// independent renewal churn when enabled.  Identical (spec, seed) produce
/// identical schedules, so the ON and OFF points replay the same incident.
faults::FaultSchedule chaos_schedule(const sim::ScenarioSpec& spec,
                                     const orbit::WalkerConstellation& constellation,
                                     const faults::ChurnConfig& background,
                                     std::uint64_t seed) {
  const Milliseconds start = Milliseconds::from_seconds(spec.chaos_start_s);
  const Milliseconds duration = Milliseconds::from_seconds(spec.chaos_duration_s);
  des::Rng rng(seed);

  faults::FaultDomain domain;
  double fraction = 1.0;
  if (spec.chaos == "disaster-region") {
    domain = faults::gateway_region_domain(
        "disaster", data::ground_stations(),
        {spec.chaos_lat, spec.chaos_lon, 0.0}, Kilometers{spec.chaos_radius_km});
  } else if (spec.chaos == "solar-storm") {
    domain = faults::constellation_domain(constellation);
    fraction = spec.chaos_fraction;
  } else if (spec.chaos == "flash-crowd-failover") {
    domain = faults::plane_domain(constellation,
                                  static_cast<std::uint32_t>(spec.chaos_plane));
  } else {
    throw ConfigError("ablation_chaos: unknown --chaos '" + spec.chaos + "'");
  }
  const faults::FaultSchedule correlated =
      faults::correlated_trace(domain, {{start, duration, fraction}}, rng);

  if (!background.satellite.enabled() && !background.cache_node.enabled()) {
    return correlated;
  }
  // Independent renewal churn keeps flapping *around* the correlated
  // incident; union-depth merging stops a renewal recovery from reviving a
  // component the storm still holds down.
  faults::ChurnConfig churn = background;
  churn.horizon = Milliseconds::from_seconds(spec.load_horizon_s);
  const faults::FaultSchedule renewal = faults::FaultSchedule::generate(
      churn,
      {.satellites = constellation.size(),
       .ground_stations =
           static_cast<std::uint32_t>(data::ground_stations().size())},
      rng);
  return faults::merge_schedules({&correlated, &renewal});
}

ChaosPoint run_point(sim::World& world, const load::LoadConfig& config,
                     std::uint64_t schedule_seed) {
  // Churn mutates the network, so every point owns an unshared variant
  // (ablation_churn's convention); the fleet and ground CDN likewise.
  const auto network =
      world.make_network(lsn::starlink_preset(world.spec().constellation));
  load::LoadConfig point_config = config;
  point_config.fault_schedule = chaos_schedule(
      world.spec(), network->constellation(), world.churn_config(), schedule_seed);
  space::SatelliteFleet fleet = world.make_fleet();
  cdn::CdnDeployment ground = world.make_ground_cdn();
  load::LoadRunner engine(*network, fleet, ground, world.clients(), point_config);
  ChaosPoint point;
  point.report = engine.run();
  point.churn = engine.churn_counters();
  return point;
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The ablated configuration: same world, same incident, same deadline SLO
/// measurement -- but the plain three-tier fetch with every resilience
/// mechanism stripped.
load::LoadConfig ablated(const load::LoadConfig& config) {
  load::LoadConfig off = config;
  off.resilient_fetch = false;
  off.hedge_auto = false;
  off.resilience = {};
  off.degradation = {};
  return off;
}

int run(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "ablation_chaos";
  options.title = "Ablation: compound-failure chaos scenarios under load";
  options.paper_ref = "extends Bose et al., HotNets '24, sections 3.2 + 5";
  options.default_seed = 700;
  // Published defaults: the Frankfurt disaster-region incident at a load
  // whose surge drives the regional downlinks to their admission limits once
  // the gateways start failing over.  The deadline is a live-video segment
  // budget; attempt timeouts are short enough that the budget admits two
  // escalating retries.
  options.defaults.arrival_rate_rps = 4'000.0;
  options.defaults.load_horizon_s = 20.0;
  options.defaults.link_capacity_scale = 0.1;
  options.defaults.chaos = "disaster-region";
  options.defaults.resilient_fetch = true;
  options.defaults.request_deadline_ms = 400.0;
  options.defaults.attempt_timeout_ms = 120.0;
  options.defaults.hedge_delay_ms = -1.0;  // auto: trailing p99
  options.defaults.backoff_jitter = 0.1;
  options.defaults.breaker_threshold = 5;
  options.defaults.shed_to_ground = true;
  sim::Runner runner(argc, argv, options);
  runner.banner();
  const bool accept = runner.get("accept", true);

  sim::World& world = runner.world();
  (void)world.clients();  // touch lazily-built substrate before sharding
  (void)world.network();
  const load::LoadConfig on_config = load::load_config_from_spec(runner.spec());
  const std::vector<load::LoadConfig> points{on_config, ablated(on_config)};
  const std::vector<std::string> labels{"resilience-on", "resilience-off"};

  std::vector<ChaosPoint> results(points.size());
  runner.pool().parallel_for(points.size(), [&](std::size_t p) {
    results[p] = run_point(world, points[p], runner.seed());
  });

  for (const ChaosPoint& point : results) {
    for (const double v : point.report.latency_ms.raw()) runner.checksum().add(v);
    runner.checksum().add(point.report.availability());
    runner.checksum().add(point.report.deadline_miss_fraction());
  }
  std::cout << "sweep threads: " << runner.pool().thread_count()
            << ", determinism checksum: " << runner.checksum().hex()
            << " (identical for any --threads)\n\n";

  // Sim-time observability artifacts.  Each point's series/timeline was
  // recorded inside its own (serial, deterministic) run; merging them here
  // in point order keeps the artifacts -- and their printed checksums --
  // bit-identical for any --threads value.
  const sim::ScenarioSpec& spec = runner.spec();
  if (!spec.series_out.empty()) {
    std::ofstream out(spec.series_out);
    if (!out) {
      std::cerr << "warning: cannot write --series-out " << spec.series_out << "\n";
    } else {
      const bool jsonl = ends_with(spec.series_out, ".jsonl");
      std::uint64_t combined = obs::kFnv1aBasis;
      for (std::size_t p = 0; p < results.size(); ++p) {
        const obs::TimeSeries& series = results[p].report.series;
        if (jsonl) {
          series.write_jsonl(out, labels[p]);
        } else {
          series.write_csv(out, labels[p], /*header=*/p == 0);
        }
        combined = obs::fnv1a_fold(combined, series.checksum());
      }
      std::cout << "series checksum: " << hex64(combined) << " ("
                << results[0].report.series.windows.size() << " windows/point) -> "
                << spec.series_out << "\n";
    }
  }
  if (!spec.timeline_out.empty()) {
    std::ofstream out(spec.timeline_out);
    if (!out) {
      std::cerr << "warning: cannot write --timeline-out " << spec.timeline_out
                << "\n";
    } else {
      std::uint64_t combined = obs::kFnv1aBasis;
      for (std::size_t p = 0; p < results.size(); ++p) {
        results[p].report.timeline.write_jsonl(out, labels[p]);
        combined = obs::fnv1a_fold(combined, results[p].report.timeline.checksum());
      }
      std::cout << "timeline checksum: " << hex64(combined) << " -> "
                << spec.timeline_out << "\n";
      for (std::size_t p = 0; p < results.size(); ++p) {
        const obs::IncidentTimeline& tl = results[p].report.timeline;
        std::cout << "timeline[" << labels[p] << "]: " << tl.count("fault.fail")
                  << " injections, " << tl.count("breaker.")
                  << " breaker transitions, " << tl.count("degradation.")
                  << " degradation events, " << results[p].report.slo_alerts
                  << " SLO alerts (budget consumed "
                  << ConsoleTable::format_fixed(
                         results[p].report.slo_budget_consumed, 2)
                  << "x)\n";
      }
    }
  }
  std::cout << "\n";

  CsvWriter csv(runner.csv(),
                {"mode", "offered", "completed", "failed", "rejected", "no_coverage",
                 "availability", "deadline_missed", "abandoned", "deadline_miss_rate",
                 "p50_ms", "p99_ms", "goodput_mbps", "retries", "hedged", "hedge_won",
                 "breaker_short_circuits", "shed_to_ground", "hot_marks",
                 "satellite_failures", "gateway_failures"});
  ConsoleTable table({"mode", "availability", "miss rate", "p50 ms", "p99 ms",
                      "goodput Mbps", "retries", "hedged", "shed", "breaker opens"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    const load::LoadReport& r = results[p].report;
    const auto& churn = results[p].churn;
    const double p50 = r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.5);
    const double p99 = r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.99);
    csv.row({labels[p], std::to_string(r.offered), std::to_string(r.completed),
             std::to_string(r.failed), std::to_string(r.rejected),
             std::to_string(r.no_coverage),
             ConsoleTable::format_fixed(r.availability(), 6),
             std::to_string(r.deadline_missed), std::to_string(r.abandoned),
             ConsoleTable::format_fixed(r.deadline_miss_fraction(), 6),
             ConsoleTable::format_fixed(p50, 3), ConsoleTable::format_fixed(p99, 3),
             ConsoleTable::format_fixed(r.goodput_mbps, 3), std::to_string(r.retries),
             std::to_string(r.hedged), std::to_string(r.hedge_won),
             std::to_string(r.breaker_short_circuits),
             std::to_string(r.shed_to_ground), std::to_string(r.hot_marks),
             std::to_string(churn.satellite_failures),
             std::to_string(churn.gateway_failures)});
    table.add_row({labels[p],
                   ConsoleTable::format_fixed(100.0 * r.availability(), 2) + "%",
                   ConsoleTable::format_fixed(100.0 * r.deadline_miss_fraction(), 2) + "%",
                   ConsoleTable::format_fixed(p50, 1), ConsoleTable::format_fixed(p99, 1),
                   ConsoleTable::format_fixed(r.goodput_mbps, 1),
                   std::to_string(r.retries), std::to_string(r.hedged),
                   std::to_string(r.shed_to_ground),
                   std::to_string(r.breaker_short_circuits)});
  }
  table.render(std::cout);

  const load::LoadReport& on = results[0].report;
  const load::LoadReport& off = results[1].report;
  const double p99_on = on.latency_ms.empty() ? 0.0 : on.latency_ms.quantile(0.99);
  const double p50_on = on.latency_ms.empty() ? 0.0 : on.latency_ms.quantile(0.5);
  std::cout << "\nChaos '" << runner.spec().chaos << "': availability "
            << ConsoleTable::format_fixed(100.0 * on.availability(), 2)
            << "% on vs " << ConsoleTable::format_fixed(100.0 * off.availability(), 2)
            << "% ablated; deadline-miss rate "
            << ConsoleTable::format_fixed(100.0 * on.deadline_miss_fraction(), 2)
            << "% on vs "
            << ConsoleTable::format_fixed(100.0 * off.deadline_miss_fraction(), 2)
            << "% ablated\n";
  runner.record("availability_on", on.availability());
  runner.record("availability_off", off.availability());
  runner.record("miss_rate_on", on.deadline_miss_fraction());
  runner.record("miss_rate_off", off.deadline_miss_fraction());
  runner.record("p99_on_ms", p99_on);

  bool ok = true;
  if (accept && runner.spec().chaos == "disaster-region") {
    // Acceptance (the published incident): resilience keeps availability at
    // three nines of offered requests through the outage, the ablation shows
    // a measurable miss-rate regression, and the resilient tail stays
    // bounded (the deadline budget caps how long any request can take).
    if (on.availability() < 0.99) {
      std::cout << "FAIL: resilience-on availability below 99%\n";
      ok = false;
    }
    if (off.deadline_miss_fraction() <= on.deadline_miss_fraction()) {
      std::cout << "FAIL: ablating resilience did not worsen the deadline-miss rate\n";
      ok = false;
    }
    if (p99_on > 50.0 * p50_on) {
      std::cout << "FAIL: resilience-on p99 unbounded relative to p50\n";
      ok = false;
    }
    if (!spec.timeline_out.empty()) {
      // With a timeline recorded, the published incident must be legible in
      // it: the seeded injection and at least one breaker transition in the
      // resilient run, and an SLO burn-rate page in the ablated run (the
      // resilient run holding the objective IS the result -- the page fires
      // on the configuration that lost its error budget), all at
      // deterministic sim-times.
      if (on.timeline.count("fault.fail") == 0) {
        std::cout << "FAIL: timeline missing the seeded fault injection\n";
        ok = false;
      }
      if (on.timeline.count("breaker.") == 0) {
        std::cout << "FAIL: timeline shows no circuit-breaker transition\n";
        ok = false;
      }
      if (off.timeline.count("slo.alert-fire") == 0) {
        std::cout << "FAIL: ablated-run timeline shows no SLO burn-rate alert\n";
        ok = false;
      }
    }
  }
  return runner.finish(ok);
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
