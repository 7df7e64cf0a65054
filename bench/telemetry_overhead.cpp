// Telemetry overhead micro-benchmark: proves the observability hooks cost
// < 2% on the hot path (SpaceCdnRouter::fetch) when aggregate telemetry is
// enabled, and reports the price of the heavier diagnostic modes.
//
// Three configurations over an identical fetch workload (same seeds, same
// request sequence, caches frozen by admit_on_fetch=false so every round
// does identical work):
//
//   disabled  -- no sinks installed; the zero-cost default every simulation
//                runs with.  This is the baseline.
//   metrics   -- MetricsRegistry installed, exactly what --metrics-out
//                installs: the "always-on" aggregate-telemetry deployment.
//                Gate: < --limit (2%) overhead versus disabled.
//   full      -- everything on (metrics, tracer building a span tree per
//                fetch, wall-clock profiler).  Reported for
//                information only: tracing/profiling are per-capture
//                diagnostic modes, priced here so nobody enables them
//                expecting them to be free.
//
// Rounds are interleaved (disabled, metrics, full, disabled, ...) and the
// overhead is the median across rounds of the paired per-round time ratio
// (mode time / disabled time within the same round).  Pairing matters: the
// dominant noise on shared runners is slow clock drift spanning whole
// rounds, which a per-mode minimum can sample at different speeds for
// different modes; the within-round ratio cancels it.  A work checksum
// (summed RTTs) asserts the three modes really performed the same fetches.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "sim/runner.hpp"
#include "spacecdn/placement_map.hpp"
#include "spacecdn/router.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

struct Workload {
  const lsn::StarlinkNetwork* network = nullptr;
  space::SpaceCdnRouter* router = nullptr;
  const cdn::ContentCatalog* catalog = nullptr;
  const cdn::RegionalPopularity* popularity = nullptr;
  std::vector<const data::CityInfo*> clients;
};

/// Runs one round of `fetches` requests; returns (seconds, rtt checksum).
std::pair<double, double> run_round(const Workload& w, int fetches, std::uint64_t seed) {
  des::Rng rng(seed);
  double checksum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < fetches; ++i) {
    const auto* city = w.clients[static_cast<std::size_t>(i) % w.clients.size()];
    const auto& country = data::country(city->country_code);
    const auto id = w.popularity->sample(country.region, rng);
    const auto result = w.router->fetch(data::location(*city), country,
                                        w.catalog->item(id), rng, Milliseconds{0.0});
    if (result) checksum += result->rtt.value();
  }
  const auto stop = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(stop - start).count(), checksum};
}

/// Median of a sample (sorts a copy).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int run(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "telemetry_overhead";
  options.title = "Telemetry overhead on SpaceCdnRouter::fetch";
  options.paper_ref = "observability acceptance gate (DESIGN.md, obs/)";
  options.default_seed = 2;  // the per-round request-sequence seed
  sim::Runner runner(argc, argv, options);
  const int fetches = static_cast<int>(runner.get("fetches", 2000L));
  const int rounds = static_cast<int>(runner.get("rounds", 7L));
  const double limit_pct = runner.get("limit", 2.0);
  const std::uint64_t catalog_seed =
      static_cast<std::uint64_t>(runner.get("catalog-seed", 90L));
  runner.banner();
  std::cout << "acceptance: aggregate telemetry costs < "
            << ConsoleTable::format_fixed(limit_pct, 1) << "% (DESIGN.md, obs/)\n";

  // Fixed-epoch SpaceCDN stack; admit_on_fetch=false freezes cache contents
  // so every round performs identical lookups regardless of ordering.
  lsn::StarlinkNetwork& network = runner.world().network();
  des::Rng catalog_rng(catalog_seed);
  const cdn::ContentCatalog catalog({.object_count = 200}, catalog_rng);
  const cdn::RegionalPopularity popularity(catalog.size(), {});
  space::SatelliteFleet fleet = runner.world().make_fleet();
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(network, fleet, ground, {.admit_on_fetch = false});

  const space::PlacementMap placement(network.constellation(),
                                      {.policy = space::PlacementPolicy::kPerPlane});
  for (cdn::ContentId id = 0; id < catalog.size(); ++id) {
    placement.place(fleet, catalog.item(id), Milliseconds{0.0});
  }

  Workload w;
  w.network = &network;
  w.router = &router;
  w.catalog = &catalog;
  w.popularity = &popularity;
  for (const char* name : {"London", "Sao Paulo", "Tokyo", "Nairobi", "Denver"}) {
    w.clients.push_back(&data::city(name));
  }

  // Warm-up: touch every code path (and page in the caches) before timing.
  (void)run_round(w, fetches / 4, 1);

  enum Mode { kDisabled = 0, kMetrics = 1, kFull = 2 };
  const char* mode_names[] = {"disabled", "metrics", "full"};
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::Profiler profiler;

  double best[3] = {1e300, 1e300, 1e300};
  double checksum[3] = {0.0, 0.0, 0.0};
  std::vector<double> ratios[3];  // per-round time ratio vs the disabled leg
  for (int r = 0; r < rounds; ++r) {
    double round_secs[3] = {0.0, 0.0, 0.0};
    for (int mode = 0; mode < 3; ++mode) {
      obs::TelemetrySinks sinks;
      if (mode >= kMetrics) sinks.metrics = &registry;
      if (mode == kFull) {
        sinks.tracer = &tracer;
        sinks.profiler = &profiler;
      }
      const obs::TelemetryScope scope(sinks);
      // Same seed in every mode/round: identical request sequence.
      const auto [seconds, sum] = run_round(w, fetches, runner.seed());
      round_secs[mode] = seconds;
      best[mode] = std::min(best[mode], seconds);
      checksum[mode] = sum;
    }
    for (int mode = 0; mode < 3; ++mode) {
      ratios[mode].push_back(round_secs[mode] / round_secs[kDisabled]);
    }
  }

  ConsoleTable table({"mode", "min round (ms)", "ns / fetch", "overhead"});
  CsvWriter csv(runner.csv(), {"mode", "min_round_ms", "ns_per_fetch", "overhead_pct"});
  std::cout << "\n";
  double overhead_pct[3] = {0.0, 0.0, 0.0};
  for (int mode = 0; mode < 3; ++mode) {
    overhead_pct[mode] = 100.0 * (median(ratios[mode]) - 1.0);
    table.add_row({mode_names[mode], ConsoleTable::format_fixed(best[mode] * 1e3, 2),
                   ConsoleTable::format_fixed(best[mode] * 1e9 / fetches, 0),
                   ConsoleTable::format_fixed(overhead_pct[mode], 2) + "%"});
    csv.row({mode_names[mode], ConsoleTable::format_fixed(best[mode] * 1e3, 3),
             ConsoleTable::format_fixed(best[mode] * 1e9 / fetches, 0),
             ConsoleTable::format_fixed(overhead_pct[mode], 3)});
  }
  std::cout << "\n";
  table.render(std::cout);

  const bool same_work = checksum[kDisabled] == checksum[kMetrics] &&
                         checksum[kDisabled] == checksum[kFull];
  const bool pass = overhead_pct[kMetrics] < limit_pct;
  std::cout << "\nWork checksum identical across modes: " << (same_work ? "yes" : "NO")
            << "\nAggregate-telemetry overhead "
            << ConsoleTable::format_fixed(overhead_pct[kMetrics], 2) << "% "
            << (pass ? "[pass < " : "[FAIL >= ")
            << ConsoleTable::format_fixed(limit_pct, 1) << "%]\n";
  std::cout << "Full diagnostics (tracing + profiling) cost "
            << ConsoleTable::format_fixed(overhead_pct[kFull], 2)
            << "% -- per-capture modes, priced for reference.\n";
  runner.checksum().add(checksum[kDisabled]);
  runner.record("metrics_overhead_pct", overhead_pct[kMetrics]);
  runner.record("full_overhead_pct", overhead_pct[kFull]);
  return runner.finish(pass && same_work);
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
