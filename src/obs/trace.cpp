#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace spacecdn::obs {

namespace {

std::string escape_json(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string format_ms(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

// ------------------------------------------------------------------- Trace

Milliseconds Trace::children_total() const noexcept {
  Milliseconds sum{0.0};
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].parent == 0) sum += spans[i].duration;
  }
  return sum;
}

std::uint32_t Trace::depth(std::uint32_t index) const noexcept {
  std::uint32_t d = 0;
  while (index < spans.size() && spans[index].parent != kNoParent) {
    index = spans[index].parent;
    ++d;
  }
  return d;
}

// ------------------------------------------------------------ TraceBuilder

TraceBuilder::TraceBuilder(std::string name, Milliseconds at) {
  trace_.name = std::move(name);
  trace_.at = at;
  trace_.spans.push_back(TraceSpan{trace_.name, kNoParent, Milliseconds{0.0},
                                   Milliseconds{0.0}, {}, {}});
}

std::uint32_t TraceBuilder::open(std::string name, std::uint32_t parent) {
  const std::uint32_t resolved = parent == kNoParent ? 0 : parent;
  SPACECDN_EXPECT(resolved < trace_.spans.size(), "trace span parent out of range");
  trace_.spans.push_back(TraceSpan{std::move(name), resolved, Milliseconds{0.0},
                                   Milliseconds{0.0}, {}, {}});
  return static_cast<std::uint32_t>(trace_.spans.size() - 1);
}

void TraceBuilder::set_start(std::uint32_t span, Milliseconds start) {
  SPACECDN_EXPECT(span < trace_.spans.size(), "trace span index out of range");
  trace_.spans[span].start = start;
}

void TraceBuilder::set_duration(std::uint32_t span, Milliseconds duration) {
  SPACECDN_EXPECT(span < trace_.spans.size(), "trace span index out of range");
  trace_.spans[span].duration = duration;
}

void TraceBuilder::attr(std::uint32_t span, std::string key, std::string value) {
  SPACECDN_EXPECT(span < trace_.spans.size(), "trace span index out of range");
  trace_.spans[span].attrs.emplace_back(std::move(key), std::move(value));
}

void TraceBuilder::metric(std::uint32_t span, std::string key, double value) {
  SPACECDN_EXPECT(span < trace_.spans.size(), "trace span index out of range");
  trace_.spans[span].metrics.emplace_back(std::move(key), value);
}

Trace TraceBuilder::finish(bool failed) {
  trace_.failed = failed;
  return std::move(trace_);
}

// ------------------------------------------------------------------ Tracer

void Tracer::set_retain(std::size_t n) {
  retain_ = n;
  if (retained_.size() > retain_) {
    retained_.erase(retained_.begin(),
                    retained_.begin() + static_cast<std::ptrdiff_t>(retained_.size() - retain_));
  }
}

void Tracer::record(Trace trace) {
  trace.id = next_id_++;
  ++recorded_;
  if (jsonl_ != nullptr) {
    write_jsonl(*jsonl_, trace);
    *jsonl_ << "\n";
  }
  if (retain_ > 0) {
    if (retained_.size() == retain_) retained_.erase(retained_.begin());
    retained_.push_back(std::move(trace));
  }
}

const Trace& Tracer::last() const {
  SPACECDN_EXPECT(!retained_.empty(), "no retained traces (set_retain first)");
  return retained_.back();
}

// ------------------------------------------------------------------- JSONL

void write_jsonl(std::ostream& os, const Trace& trace) {
  os << "{\"trace_id\":" << trace.id << ",\"name\":\"" << escape_json(trace.name)
     << "\",\"at_ms\":" << format_ms(trace.at.value())
     << ",\"failed\":" << (trace.failed ? "true" : "false")
     << ",\"total_ms\":" << format_ms(trace.total().value()) << ",\"spans\":[";
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpan& span = trace.spans[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << escape_json(span.name) << "\",\"parent\":";
    if (span.parent == kNoParent) {
      os << -1;
    } else {
      os << span.parent;
    }
    os << ",\"start_ms\":" << format_ms(span.start.value())
       << ",\"duration_ms\":" << format_ms(span.duration.value());
    if (!span.attrs.empty()) {
      os << ",\"attrs\":{";
      for (std::size_t a = 0; a < span.attrs.size(); ++a) {
        if (a != 0) os << ",";
        os << "\"" << escape_json(span.attrs[a].first) << "\":\""
           << escape_json(span.attrs[a].second) << "\"";
      }
      os << "}";
    }
    if (!span.metrics.empty()) {
      os << ",\"metrics\":{";
      for (std::size_t m = 0; m < span.metrics.size(); ++m) {
        if (m != 0) os << ",";
        os << "\"" << escape_json(span.metrics[m].first)
           << "\":" << format_ms(span.metrics[m].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}";
}

// --------------------------------------------------------------- waterfall

void render_waterfall(std::ostream& os, const Trace& trace, int width) {
  os << "trace " << trace.name << " @ " << ConsoleTable::format_fixed(trace.at.value(), 1)
     << " ms, total " << ConsoleTable::format_fixed(trace.total().value(), 2) << " ms"
     << (trace.failed ? "  [FAILED]" : "") << "\n";
  const double total = std::max(trace.total().value(), 1e-9);
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpan& span = trace.spans[i];
    std::string label;
    for (std::uint32_t d = 0; d < trace.depth(static_cast<std::uint32_t>(i)); ++d) {
      label += "  ";
    }
    label += span.name;
    for (const auto& [k, v] : span.attrs) label += " " + k + "=" + v;
    // Fixed label column, then the time bar: offset spaces, then '#'.
    constexpr std::size_t kLabelWidth = 44;
    if (label.size() < kLabelWidth) label.resize(kLabelWidth, ' ');
    const double frac_start =
        std::clamp(span.start.value() / total, 0.0, 1.0);
    const double frac_len = std::clamp(span.duration.value() / total, 0.0, 1.0);
    const int offset = static_cast<int>(std::lround(frac_start * width));
    int len = static_cast<int>(std::lround(frac_len * width));
    if (span.duration.value() > 0.0 && len == 0) len = 1;
    std::string bar(static_cast<std::size_t>(offset), ' ');
    bar += std::string(static_cast<std::size_t>(std::min(len, width - offset)), '#');
    os << label << " |" << bar;
    for (std::size_t p = bar.size(); p < static_cast<std::size_t>(width); ++p) os << ' ';
    os << "| " << ConsoleTable::format_fixed(span.duration.value(), 2) << " ms\n";
  }
}

}  // namespace spacecdn::obs
