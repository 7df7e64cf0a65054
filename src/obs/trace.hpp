// Per-fetch trace spans: where one request's latency went.
//
// A Trace is a tree of spans built by the instrumented code (the SpaceCDN
// router is the main producer): the root is the whole fetch, children are
// serving-satellite selection, per-tier attempts, retry backoff charges, and
// cache admissions.  Spans carry a *charged* duration in simulated
// milliseconds -- the amount of client-visible latency that span accounts
// for -- so the direct children of the root always sum to the root's total
// (the acceptance check ablation_churn --trace-out verifies).
//
// Finished traces go to a Tracer, which streams them as JSONL (one trace
// per line) and optionally retains the most recent ones in memory;
// render_waterfall() draws a single trace as an ASCII waterfall for humans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::obs {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// One node of a trace tree.  `start` is the offset from the trace begin at
/// which the span's charge starts accruing (simulated ms).
struct TraceSpan {
  std::string name;
  std::uint32_t parent = kNoParent;
  Milliseconds start{0.0};
  Milliseconds duration{0.0};
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::pair<std::string, double>> metrics;
};

/// One finished request trace.
struct Trace {
  std::uint64_t id = 0;
  std::string name;
  Milliseconds at{0.0};  ///< simulation time of the request
  bool failed = false;
  std::vector<TraceSpan> spans;  ///< spans[0] is the root (when non-empty)

  [[nodiscard]] Milliseconds total() const noexcept {
    return spans.empty() ? Milliseconds{0.0} : spans[0].duration;
  }
  /// Sum of the charged durations of the root's direct children.
  [[nodiscard]] Milliseconds children_total() const noexcept;
  /// Nesting depth of span `index` (root = 0).
  [[nodiscard]] std::uint32_t depth(std::uint32_t index) const noexcept;
};

/// Builds one Trace.  The builder hands out span indices; the caller sets
/// durations when the charge is known (a DES has no wall clock to stop).
class TraceBuilder {
 public:
  TraceBuilder(std::string name, Milliseconds at);

  /// Opens a span under `parent` (kNoParent = under the root).  The first
  /// open() with parent == kNoParent creates the root itself.
  std::uint32_t open(std::string name, std::uint32_t parent = kNoParent);

  void set_start(std::uint32_t span, Milliseconds start);
  void set_duration(std::uint32_t span, Milliseconds duration);
  void attr(std::uint32_t span, std::string key, std::string value);
  void metric(std::uint32_t span, std::string key, double value);

  [[nodiscard]] std::uint32_t root() const noexcept { return 0; }
  [[nodiscard]] std::size_t span_count() const noexcept { return trace_.spans.size(); }

  /// Seals the trace: sets failure state and returns it (builder is spent).
  [[nodiscard]] Trace finish(bool failed = false);

 private:
  Trace trace_;
};

/// Collects finished traces: optional JSONL stream, optional bounded
/// in-memory retention (for tests and examples).
class Tracer {
 public:
  /// Traces are appended to `os` as JSON-Lines; pass nullptr to detach.
  void set_jsonl_sink(std::ostream* os) noexcept { jsonl_ = os; }
  /// Keeps the most recent `n` traces in memory (0 disables retention).
  void set_retain(std::size_t n);

  void record(Trace trace);

  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] const std::vector<Trace>& retained() const noexcept { return retained_; }
  /// Most recently recorded trace (requires retention >= 1).
  [[nodiscard]] const Trace& last() const;

 private:
  std::ostream* jsonl_ = nullptr;
  std::size_t retain_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Trace> retained_;
};

/// Writes one trace as a single JSON line (no trailing newline).
void write_jsonl(std::ostream& os, const Trace& trace);

/// Renders an indented ASCII waterfall: one row per span, bar offset/length
/// proportional to start/duration relative to the root.
void render_waterfall(std::ostream& os, const Trace& trace, int width = 40);

}  // namespace spacecdn::obs
