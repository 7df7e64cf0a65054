// The benchmark's three workloads.  Each iteration is one batch job over
// freshly built inputs: set-up (world, fleet, ground CDN, users, catalog,
// placement, fault schedule) then the run, timed separately on the host.
// The workload seed is the only input; everything else is generated from it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Deliberate check failures for the benchmark's self-test.
enum class Inject {
  kNone,
  kPinnedChecksum,  ///< compare the default seed against a wrong pin
  kAccounting,      ///< corrupt one accounting counter before the check
  kTraceMismatch,   ///< perturb the checksum of traced iterations only
};

struct Context {
  std::uint64_t seed = 0;
  Inject inject = Inject::kNone;
  spacecdn::ThreadPool* pool = nullptr;  ///< phase-1 workers (mega-users)
};

/// Outcome of one iteration.  Host times are seconds of steady-clock time;
/// every sim_* value and the checksum are simulated and repeat exactly.
struct IterationResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t offered = 0;  ///< simulated requests offered
  std::uint64_t checksum = 0;
  double sim_p95_ms = 0.0;
  double sim_availability = 0.0;
  /// Failed output checks (empty: the iteration is correct).
  std::vector<std::string> failures;
  /// Per-layer counts and simulated ratios, deltas from the end of set-up
  /// to the end of the run (filled on every iteration; cheap accessors).
  std::map<std::string, double> counts;
};

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  /// Pinned checksum of the default seed.
  std::uint64_t pinned_checksum;
  IterationResult (*run)(const Context&, Tracer&);
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace perfbench
