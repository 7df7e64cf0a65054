// SpaceCDN host-time benchmark executable.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject none|pinned-checksum|accounting|trace-mismatch]
//             [--out-dir DIR] [--git-sha SHA]
//
// Runs closed-loop iterations of one workload (the next starts when the last
// finishes) until S host seconds have passed, checks every iteration's
// simulated outputs, and prints one JSON object as the last line of stdout:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  A traced run alternates untraced and traced iterations, so the
// tracing overhead and the traced/untraced checksum equality come from the
// same process.  Human-readable detail goes to stderr; the full result
// (build type, compiler, nproc, threads, git SHA, every iteration) and the
// spans go to DIR.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "des/stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::IterationResult;
using perfbench::Tracer;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  perfbench::Inject inject = perfbench::Inject::kNone;
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--inject MODE] [--out-dir DIR] [--git-sha SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--inject") {
        if (value == "none") {
          args.inject = perfbench::Inject::kNone;
        } else if (value == "pinned-checksum") {
          args.inject = perfbench::Inject::kPinnedChecksum;
        } else if (value == "accounting") {
          args.inject = perfbench::Inject::kAccounting;
        } else if (value == "trace-mismatch") {
          args.inject = perfbench::Inject::kTraceMismatch;
        } else {
          usage("unknown --inject mode " + value);
        }
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else if (key == "--git-sha") {
        args.git_sha = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return args;
}

/// Type-7 quantile, the repository's SampleSet convention (0 when empty).
double quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  spacecdn::des::SampleSet set;
  for (const double v : values) set.add(v);
  return set.quantile(q);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Iteration {
  IterationResult result;
  bool traced = false;
  double wall_s = 0.0;
};

/// Per-layer metrics of one traced iteration: its counts, plus times from
/// its spans.  Metrics a workload does not touch stay absent and read 0.
std::map<std::string, double> layer_metrics(const Tracer& tracer, int it,
                                            const Iteration& iteration) {
  std::map<std::string, double> m = iteration.result.counts;
  const auto span_s = [&](const char* name) { return tracer.total(name, it); };

  m["sim.world_build_s"] = span_s("sim.world_build");
  m["sim.synthesize_users_s"] = span_s("sim.synthesize_users");
  m["orbit.assign_s"] = span_s("orbit.assign");
  m["orbit.assign_ns_per_query"] =
      m["orbit.assign_queries"] > 0 ? 1e9 * m["orbit.assign_s"] / m["orbit.assign_queries"]
                                    : 0.0;
  const std::vector<double> fetches = tracer.durations("spacecdn.fetch", it);
  m["spacecdn.fetch_calls"] = static_cast<double>(fetches.size());
  m["spacecdn.fetch_s"] = span_s("spacecdn.fetch");
  m["spacecdn.fetch_us_p50"] = 1e6 * quantile(fetches, 0.5);
  m["spacecdn.fetch_us_p99"] = 1e6 * quantile(fetches, 0.99);
  m["spacecdn.churn_apply_s"] = span_s("spacecdn.churn_apply");
  m["spacecdn.repair_s"] = span_s("spacecdn.repair");
  m["load.construct_s"] = span_s("load.construct");
  m["load.run_s"] = span_s("load.run");
  // The replay probe's mean fetch cost scaled to every fetch of the run:
  // an estimate of the router's share of LoadRunner::run.
  m["load.fetch_share_est"] =
      m["load.run_s"] > 0.0 && !fetches.empty()
          ? m["spacecdn.fetch_s"] / m["spacecdn.fetch_calls"] * m["load.offered"] /
                m["load.run_s"]
          : 0.0;
  const std::map<std::string, double> self = tracer.self_times(it);
  const auto self_des = self.find("des.run");
  m["des.self_s"] = self_des == self.end() ? 0.0 : self_des->second;
  const double engine_s = span_s("des.run") + m["load.run_s"];
  m["des.ns_per_event"] = m["des.events"] > 0 ? 1e9 * engine_s / m["des.events"] : 0.0;
  m["faults.generate_s"] = span_s("faults.generate");
  // Iteration time under no span; the replay probe runs after the
  // iteration's clock stops, so it is not part of the attributed time.
  m["trace.unattributed_s"] =
      iteration.wall_s - (tracer.root_total(it) - span_s("spacecdn.replay_probe"));
  return m;
}

/// Every per-layer metric a traced run reports, with its unit.
const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units{
      {"sim.world_build_s", "s"},
      {"sim.synthesize_users_s", "s"},
      {"sim.p99_ms", "ms"},
      {"orbit.assign_s", "s"},
      {"orbit.assign_queries", "count"},
      {"orbit.assign_ns_per_query", "ns"},
      {"orbit.covered_ratio", "ratio"},
      {"net.sssp_hits", "count"},
      {"net.sssp_misses", "count"},
      {"net.sssp_invalidations", "count"},
      {"net.sssp_hit_ratio", "ratio"},
      {"cdn.sat_hits", "count"},
      {"cdn.sat_misses", "count"},
      {"cdn.sat_hit_ratio", "ratio"},
      {"cdn.sat_insertions", "count"},
      {"cdn.sat_evictions", "count"},
      {"spacecdn.fetch_calls", "count"},
      {"spacecdn.fetch_s", "s"},
      {"spacecdn.fetch_us_p50", "us"},
      {"spacecdn.fetch_us_p99", "us"},
      {"spacecdn.tier_i_share", "ratio"},
      {"spacecdn.tier_ii_share", "ratio"},
      {"spacecdn.tier_iii_share", "ratio"},
      {"spacecdn.retries_per_fetch", "ratio"},
      {"spacecdn.churn_apply_s", "s"},
      {"spacecdn.churn_events", "count"},
      {"spacecdn.repair_s", "s"},
      {"spacecdn.repair_scans", "count"},
      {"spacecdn.repair_objects_scanned", "count"},
      {"spacecdn.repair_installs", "count"},
      {"spacecdn.repair_useful_ratio", "ratio"},
      {"load.construct_s", "s"},
      {"load.run_s", "s"},
      {"load.offered", "count"},
      {"load.completed", "count"},
      {"load.rejected", "count"},
      {"load.queue_wait_p99_ms", "ms"},
      {"load.peak_queue_depth", "count"},
      {"load.fetch_share_est", "ratio"},
      {"des.events", "count"},
      {"des.self_s", "s"},
      {"des.ns_per_event", "ns"},
      {"faults.schedule_events", "count"},
      {"faults.generate_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.unattributed_s", "s"},
  };
  return units;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const perfbench::Workload* workload = nullptr;
  for (const perfbench::Workload& w : perfbench::workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + args.workload);

  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  // Only mega-users' phase 1 is parallel; every other phase is serial.
  const std::size_t threads =
      args.workload == "mega-users" ? std::min<std::size_t>(4, nproc) : 1;
  spacecdn::ThreadPool pool(threads);
  const perfbench::Context ctx{args.seed, args.inject, &pool};
  const bool pinned = args.seed == workload->default_seed;
  const std::uint64_t pin = args.inject == perfbench::Inject::kPinnedChecksum
                                ? workload->pinned_checksum ^ 1
                                : workload->pinned_checksum;

  Tracer tracer(args.workload);
  std::vector<Iteration> iterations;
  std::size_t failed = 0;
  const double deadline = perfbench::host_now() + args.seconds;
  for (int it = 0;; ++it) {
    Iteration iteration;
    iteration.traced = args.trace && it % 2 == 1;
    tracer.begin_iteration(it, iteration.traced);
    try {
      iteration.result = workload->run(ctx, tracer);
    } catch (const std::exception& e) {
      iteration.result.failures.push_back(std::string("exception: ") + e.what());
    }
    IterationResult& r = iteration.result;
    iteration.wall_s = r.setup_s + r.run_s;
    if (iteration.traced && args.inject == perfbench::Inject::kTraceMismatch) r.checksum ^= 1;

    if (pinned && r.checksum != pin) {
      r.failures.push_back("checksum " + hex(r.checksum) + " != pinned " + hex(pin));
    }
    if (!iterations.empty()) {
      const IterationResult& first = iterations.front().result;
      if (r.checksum != first.checksum) {
        r.failures.push_back(std::string(iteration.traced ? "traced" : "repeated") +
                             " checksum " + hex(r.checksum) + " != first untraced " +
                             hex(first.checksum));
      }
      if (r.counts != first.counts) {
        r.failures.push_back("per-layer counts differ from the first iteration");
      }
    }
    for (const std::string& f : r.failures) {
      std::cerr << "iteration " << it << " FAILED: " << f << "\n";
    }
    failed += r.failures.empty() ? 0 : 1;
    std::cerr << args.workload << " iteration " << it << (iteration.traced ? " traced" : "")
              << ": setup " << r.setup_s << " s, run " << r.run_s << " s, offered "
              << r.offered << ", checksum " << hex(r.checksum) << "\n";
    iterations.push_back(std::move(iteration));

    const bool complete = args.trace ? iterations.size() % 2 == 0 : true;
    if (complete && perfbench::host_now() >= deadline) break;
  }

  // --- metrics ---
  std::vector<double> wall, setup, rps, traced_wall;
  for (const Iteration& i : iterations) {
    (i.traced ? traced_wall : wall).push_back(i.wall_s);
    if (i.traced) continue;
    setup.push_back(i.result.setup_s);
    rps.push_back(i.result.run_s > 0.0
                      ? static_cast<double>(i.result.offered) / i.result.run_s
                      : 0.0);
  }
  const IterationResult& first = iterations.front().result;
  std::vector<Metric> metrics;
  std::map<std::string, double> self_time;
  if (!args.trace) {
    metrics = {{"wall_s", median(wall), "s"},
               {"setup_s", median(setup), "s"},
               {"sim_requests_per_s", median(rps), "req/s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"sim_p95_ms", first.sim_p95_ms, "ms"},
               {"sim_availability", first.sim_availability, "fraction"}};
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (std::size_t it = 0; it < iterations.size(); ++it) {
      if (!iterations[it].traced) continue;
      for (const auto& [name, v] : layer_metrics(tracer, static_cast<int>(it), iterations[it])) {
        samples[name].push_back(v);
      }
      for (const auto& [name, v] : tracer.self_times(static_cast<int>(it))) {
        self_time[name] += v / static_cast<double>(traced_wall.size());
      }
    }
    samples["trace.overhead_s"] = {median(traced_wall) - median(wall)};
    for (const auto& [name, unit] : layer_units()) {
      metrics.push_back({name, median(samples[name]), unit});
    }
  }

  // --- result files (run description, every iteration, spans) ---
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << iterations.size() << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << number(args.seconds) << ", \"trace\": " << args.trace
        << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
        << PERFBENCH_COMPILER << "\", \"nproc\": " << nproc << ", \"threads\": " << threads
        << ", \"git_sha\": \"" << args.git_sha << "\", \"checksum\": \""
        << hex(first.checksum) << "\",\n \"iterations\": [";
    for (std::size_t i = 0; i < iterations.size(); ++i) {
      const IterationResult& r = iterations[i].result;
      out << (i ? ",\n  " : "\n  ") << "{\"traced\": " << iterations[i].traced
          << ", \"setup_s\": " << number(r.setup_s) << ", \"run_s\": " << number(r.run_s)
          << ", \"offered\": " << r.offered << ", \"checksum\": \"" << hex(r.checksum)
          << "\", \"failures\": " << r.failures.size() << "}";
    }
    out << "],\n \"self_time_s\": {";
    std::size_t k = 0;
    for (const auto& [name, v] : self_time) {
      out << (k++ ? ", " : "") << "\"" << name << "\": " << number(v);
    }
    out << "},\n \"result\": " << json.str() << "}\n";
  }
  if (args.trace) {
    std::ofstream spans(stem + "-spans.json");
    tracer.write_json(spans);
  }

  std::cerr << "workload " << args.workload << " seed " << args.seed << " ("
            << PERFBENCH_BUILD_TYPE << ", " << PERFBENCH_COMPILER << ", nproc " << nproc
            << ", threads " << threads << ", git " << args.git_sha << "), checksum "
            << hex(first.checksum) << (pinned ? " (pinned seed)" : "") << "\n";
  for (const auto& [name, v] : self_time) {
    std::cerr << "  self " << name << ": " << v << " s per traced iteration\n";
  }
  std::cout << json.str() << std::endl;
  return 0;
}
