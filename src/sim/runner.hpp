// Scenario engine, layer 3: uniform experiment execution.
//
// Runner is the one prologue/epilogue every bench, example, and heavyweight
// test fixture shares.  It parses the uniform flag surface
//
//   --scenario=FILE      key=value scenario file (CLI flags override it)
//   --seed=N             primary experiment seed (default: the bench's
//                        historical literal, so published numbers are
//                        unchanged; also re-seeds the AIM campaign unless
//                        --aim-seed pins it)
//   --threads=N          sharded-sweep worker count (0 = hardware)
//   --csv-out=FILE       CSV series to FILE instead of stdout
//   --json-out=FILE      machine-readable results (BENCH_*.json)
//   --metrics-out=FILE   metrics registry dump (Prometheus text, or JSON
//                        when FILE ends in ".json")
//   --trace-out=FILE     per-fetch trace spans, streamed as JSONL
//   --profile            SPACECDN_PROFILE wall-clock table on stderr
//
// plus the world keys (--tests-per-city, --constellation, ...), builds the
// World, owns the thread pool for deterministic sharded parallel_for
// execution with per-shard RNG streams, carries the FNV-1a determinism
// checksum, and emits recorded results as JSON at exit.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "des/random.hpp"
#include "des/stats.hpp"
#include "obs/telemetry.hpp"
#include "sim/world.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace spacecdn::sim {

/// Per-binary constants handed to the Runner: identity for the banner and
/// the JSON results, plus the defaults the published numbers used.
struct RunnerOptions {
  /// Binary name, used as the JSON results key ("fig7_spacecdn_cdf").
  std::string name;
  /// Banner title and paper reference (banner() prints both).
  std::string title;
  std::string paper_ref;
  /// The bench's historical hard-coded seed; --seed defaults to it.
  std::uint64_t default_seed = 0;
  /// World defaults this bench was published with (tests_per_city etc.);
  /// scenario file and CLI flags override them.
  ScenarioSpec defaults = {};
};

/// Uniform bench harness: spec + world + pool + telemetry + results.
class Runner {
 public:
  /// Parses argv (and --scenario=FILE when present) over `options.defaults`
  /// and opens every requested output file (--csv-out, --json-out,
  /// --metrics-out, --trace-out) up front.
  /// @throws spacecdn::ConfigError on malformed flags or scenario file, or an
  /// output file that cannot be opened for writing.
  Runner(int argc, const char* const* argv, RunnerOptions options);

  /// Runs finish() if the bench did not (keeps early-return paths honest),
  /// unless an exception is unwinding the run.
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] World& world() { return world_; }

  /// The resolved worker count: --threads, except telemetry sinks force 1
  /// (the obs:: sinks are single-threaded by design).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  /// The shared pool, constructed lazily at threads() workers.
  [[nodiscard]] ThreadPool& pool();

  [[nodiscard]] std::uint64_t seed() const noexcept { return spec_.seed; }
  /// The primary RNG stream: des::Rng(seed()).
  [[nodiscard]] des::Rng rng() const { return des::Rng(spec_.seed); }
  /// Shard stream `i`: des::Rng(mix_seed(seed(), i)); independent of how
  /// shards are distributed across workers.
  [[nodiscard]] des::Rng stream_rng(std::uint64_t stream) const {
    return des::Rng(des::mix_seed(spec_.seed, stream));
  }

  /// Bench-specific knobs (CLI > scenario file > fallback), e.g.
  /// runner.get("requests", 60000L).  Queried keys are exempt from the
  /// unknown-flag warning in finish().
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] long get(const std::string& key, long fallback) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;

  /// The run's determinism checksum; benches feed every merged sample.
  [[nodiscard]] des::Fnv1aChecksum& checksum() noexcept { return checksum_; }

  /// CSV destination: the --csv-out file when given, stdout otherwise.
  [[nodiscard]] std::ostream& csv();

  /// Records one scalar/string result for the JSON emission.
  void record(const std::string& key, double value);
  void record(const std::string& key, const std::string& value);

  /// Prints the standard bench banner (title, paper ref, seed, threads).
  void banner();

  /// Epilogue: warns about unused flags, dumps telemetry sinks, writes the
  /// JSON results file, and returns the process exit code (0 iff `ok`).
  /// Idempotent; the destructor calls it with the last `ok` default (true).
  int finish(bool ok = true);

 private:
  void write_json(bool ok);

  RunnerOptions options_;
  CliArgs args_;
  ScenarioValues values_;
  ScenarioSpec spec_;
  World world_;
  std::size_t threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  des::Fnv1aChecksum checksum_;
  std::ofstream csv_file_;
  std::ofstream json_file_;
  std::ofstream metrics_file_;
  std::ofstream trace_file_;
  std::optional<obs::TelemetrySession> session_;
  std::vector<std::pair<std::string, std::string>> results_;
  bool finished_ = false;
  int exit_code_ = 0;
};

/// The shared `main` of every Runner-based binary: returns body(argc, argv),
/// or prints "error: <what>" on stderr and returns 1 when it throws a
/// spacecdn::ConfigError (a malformed flag or scenario value, or an output
/// file that cannot be opened).
int guarded_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace spacecdn::sim
