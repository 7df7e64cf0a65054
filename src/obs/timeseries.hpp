// Windowed sim-time series: what the run looked like *over time*, not just
// at the end.
//
// The paper's interesting phenomena (reconfiguration dips, failover cliffs,
// burn-rate spikes) only show up as time series.  The load engine closes one
// window per boundary of a sim-time grid anchored at t=0 and appends a row of
// per-window values; a horizon off the grid gives a partial last window, so
// series from different runs line up column-for-column.
//
// The TimeSeries is plain data with CSV/JSONL exporters and an FNV-1a
// checksum over every (start, end, values) triple, extending the repo's
// serial-vs-parallel bit-equality gates to timelines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::obs {

/// One closed sampling window: values[i] belongs to TimeSeries::columns[i].
struct SeriesWindow {
  std::uint64_t index = 0;
  Milliseconds start{0.0};
  Milliseconds end{0.0};
  std::vector<double> values;
};

/// Recorded series data: column names plus one row per closed window.
class TimeSeries {
 public:
  std::vector<std::string> columns;
  std::vector<SeriesWindow> windows;

  [[nodiscard]] bool empty() const noexcept { return windows.empty(); }

  /// CSV rows `window,start_ms,end_ms,<columns...>`.  A non-empty `run`
  /// label prepends a `run` column; `header` controls the header row so
  /// multi-run artifacts emit it once.
  void write_csv(std::ostream& os, std::string_view run = {},
                 bool header = true) const;
  /// One JSON object per window (same fields as the CSV columns).
  void write_jsonl(std::ostream& os, std::string_view run = {}) const;

  /// FNV-1a digest over (start, end, values) of every window in order.
  [[nodiscard]] std::uint64_t checksum() const;
};

}  // namespace spacecdn::obs
