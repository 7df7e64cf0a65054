// Scoped wall-clock profiling of known-hot paths.
//
//   void IslNetwork::rebuild() {
//     SPACECDN_PROFILE("IslNetwork::build");
//     ...
//   }
//
// The macro drops an RAII timer into the scope.  With no profiler installed
// (the default) the constructor is a single pointer load and the clock is
// never read; with SPACECDN_NO_TELEMETRY defined the macro compiles to
// nothing.  Durations land in a per-name des::OnlineSummary; report()
// renders the profile table.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "des/stats.hpp"

namespace spacecdn::obs {

class Profiler {
 public:
  void record(const char* name, std::uint64_t nanoseconds);

  [[nodiscard]] std::uint64_t calls(const std::string& name) const;
  /// Per-name duration summary in nanoseconds (zero-count when unknown).
  [[nodiscard]] const des::OnlineSummary& section(const std::string& name) const;

  /// Profile table: section, calls, total ms, mean / min / max microseconds.
  void report(std::ostream& os) const;

  void clear() { sections_.clear(); }

 private:
  std::map<std::string, des::OnlineSummary> sections_;
  static const des::OnlineSummary kEmpty;
};

/// RAII timer feeding the installed profiler (see obs/telemetry.hpp).  Reads
/// the clock only when a profiler is installed at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) noexcept;
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  Profiler* profiler_;  ///< resolved once at construction
  std::chrono::steady_clock::time_point start_;
};

}  // namespace spacecdn::obs

#define SPACECDN_PROFILE_CONCAT_INNER(a, b) a##b
#define SPACECDN_PROFILE_CONCAT(a, b) SPACECDN_PROFILE_CONCAT_INNER(a, b)

#ifndef SPACECDN_NO_TELEMETRY
#define SPACECDN_PROFILE(name)                                             \
  ::spacecdn::obs::ScopedTimer SPACECDN_PROFILE_CONCAT(spacecdn_profile_,  \
                                                       __COUNTER__)(name)
#else
#define SPACECDN_PROFILE(name) ((void)0)
#endif
