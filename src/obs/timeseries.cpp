#include "obs/timeseries.hpp"

#include <cstdio>
#include <cstring>
#include <ostream>

#include "obs/timeline.hpp"

namespace spacecdn::obs {
namespace {

std::uint64_t fold_double(std::uint64_t hash, double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a_fold(hash, bits);
}

void write_number(std::ostream& os, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  os << buffer;
}

}  // namespace

void TimeSeries::write_csv(std::ostream& os, std::string_view run,
                           bool header) const {
  if (header) {
    if (!run.empty()) os << "run,";
    os << "window,start_ms,end_ms";
    for (const std::string& column : columns) os << ',' << column;
    os << '\n';
  }
  for (const SeriesWindow& window : windows) {
    if (!run.empty()) os << run << ',';
    os << window.index << ',';
    write_number(os, window.start.value());
    os << ',';
    write_number(os, window.end.value());
    for (const double value : window.values) {
      os << ',';
      write_number(os, value);
    }
    os << '\n';
  }
}

void TimeSeries::write_jsonl(std::ostream& os, std::string_view run) const {
  for (const SeriesWindow& window : windows) {
    os << '{';
    if (!run.empty()) os << "\"run\":\"" << run << "\",";
    os << "\"window\":" << window.index << ",\"start_ms\":";
    write_number(os, window.start.value());
    os << ",\"end_ms\":";
    write_number(os, window.end.value());
    for (std::size_t i = 0; i < window.values.size() && i < columns.size();
         ++i) {
      os << ",\"" << columns[i] << "\":";
      write_number(os, window.values[i]);
    }
    os << "}\n";
  }
}

std::uint64_t TimeSeries::checksum() const {
  std::uint64_t hash = kFnv1aBasis;
  for (const SeriesWindow& window : windows) {
    hash = fold_double(hash, window.start.value());
    hash = fold_double(hash, window.end.value());
    for (const double value : window.values) hash = fold_double(hash, value);
  }
  return hash;
}

}  // namespace spacecdn::obs
