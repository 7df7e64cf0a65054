// Span recorder for the benchmark's traced runs.
//
// Spans are taken only in the benchmark's own files, around each call into
// a SpaceCDN module's public functions; nothing inside src/ is instrumented.
// A span is {name, start, end, parent, iteration}; the workload is constant
// per process and written once per span at exit.  Spans stay in memory and
// are written in one pass when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host seconds since the process-wide epoch (steady clock).
[[nodiscard]] double host_now();

struct Span {
  const char* name = "";  ///< "<layer>.<operation>"; static storage
  double start = 0.0;     ///< host seconds (host_now)
  double end = 0.0;
  int parent = -1;        ///< index into Tracer::spans(), -1 for a root
  int iteration = 0;
};

class Tracer {
 public:
  /// RAII span: opens on construction, closes on destruction.  Inert when
  /// the tracer is disabled, so untraced iterations pay one branch.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's index (the parent to give spans closed out of band).
    [[nodiscard]] int index() const noexcept { return index_; }

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  /// Turns recording on for one iteration (off: every Scope is inert).
  void begin_iteration(int iteration, bool enabled);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records a span measured elsewhere (a pool worker's shard); call from
  /// the thread that owns the tracer.
  void add(const char* name, double start, double end, int parent);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Sum of durations of spans called `name` in `iteration`.
  [[nodiscard]] double total(const std::string& name, int iteration) const;
  /// Durations of spans called `name` in `iteration`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name, int iteration) const;
  /// Self time (duration minus the direct children's durations) summed per
  /// span name over `iteration`.
  [[nodiscard]] std::map<std::string, double> self_times(int iteration) const;
  /// Sum of root-span durations of `iteration` (the attributed time).
  [[nodiscard]] double root_total(int iteration) const;

  /// Writes every span as one JSON document.
  void write_json(std::ostream& out) const;

 private:
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  int iteration_ = 0;
  bool enabled_ = false;
};

}  // namespace perfbench
