#include "trace.hpp"

#include <algorithm>
#include <iomanip>
#include <utility>

namespace perfbench {

double host_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(&tracer) {
  if (!tracer.enabled_) return;
  const int parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  index_ = static_cast<int>(tracer.spans_.size());
  tracer.spans_.push_back({name, host_now(), 0.0, parent, tracer.iteration_});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end = host_now();
  tracer_->open_.pop_back();
}

void Tracer::begin_iteration(int iteration, bool enabled) {
  iteration_ = iteration;
  enabled_ = enabled;
  open_.clear();
}

void Tracer::add(const char* name, double start, double end, int parent) {
  if (enabled_) spans_.push_back({name, start, end, parent, iteration_});
}

double Tracer::total(const std::string& name, int iteration) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.iteration == iteration && name == s.name) sum += s.end - s.start;
  }
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name, int iteration) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.iteration == iteration && name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

std::map<std::string, double> Tracer::self_times(int iteration) const {
  // Children of one parent may overlap (pool shards run concurrently), so
  // subtract the union of their intervals, not the sum of their durations.
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.iteration == iteration && s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.iteration != iteration) continue;
    double covered = 0.0;
    auto found = children.find(static_cast<int>(i));
    if (found != children.end()) {
      std::vector<std::pair<double, double>>& intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      double reach = s.start;
      for (const auto& [start, end] : intervals) {
        const double from = std::max(start, reach);
        const double to = std::min(end, s.end);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  return self;
}

double Tracer::root_total(int iteration) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.iteration == iteration && s.parent < 0) sum += s.end - s.start;
  }
  return sum;
}

void Tracer::write_json(std::ostream& out) const {
  out << "{\"workload\": \"" << workload_ << "\", \"spans\": [";
  out << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name << "\", \"start\": "
        << s.start << ", \"end\": " << s.end << ", \"parent\": " << s.parent
        << ", \"workload\": \"" << workload_ << "\", \"iteration\": " << s.iteration << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
