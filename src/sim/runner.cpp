#include "sim/runner.hpp"

#include <cstdio>
#include <exception>
#include <iostream>

#include "util/error.hpp"

namespace spacecdn::sim {

namespace {

std::map<std::string, std::string> scenario_file_values(const CliArgs& args) {
  const std::string path = args.get("scenario", std::string{});
  if (path.empty()) return {};
  return load_scenario_file(path);
}

ScenarioSpec resolve_spec(const ScenarioValues& values, const RunnerOptions& options) {
  ScenarioSpec spec = options.defaults;
  spec.seed = options.default_seed;
  values.apply(spec);
  return spec;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

/// Opens `file` for the output flag `--flag=path`; an empty path leaves it
/// closed.
void open_output(std::ofstream& file, const std::string& flag, const std::string& path) {
  if (path.empty()) return;
  file.open(path);
  if (!file) throw ConfigError("cannot open --" + flag + "=" + path + " for writing");
}

}  // namespace

Runner::Runner(int argc, const char* const* argv, RunnerOptions options)
    : options_(std::move(options)),
      args_(argc, argv),
      values_(scenario_file_values(args_), args_.flags()),
      spec_(resolve_spec(values_, options_)),
      world_(spec_) {
  // "scenario" rides on the CLI map; mark it consumed for typo detection.
  (void)values_.get("scenario", std::string{});
  open_output(csv_file_, "csv-out", spec_.csv_out);
  open_output(json_file_, "json-out", spec_.json_out);
  open_output(metrics_file_, "metrics-out", spec_.metrics_out);
  open_output(trace_file_, "trace-out", spec_.trace_out);

  threads_ = ThreadPool::resolve_threads(static_cast<long>(spec_.threads));
  const bool wants_telemetry =
      !spec_.metrics_out.empty() || !spec_.trace_out.empty() || spec_.profile;
  if (wants_telemetry) {
    if (threads_ > 1) {
      std::cerr << "note: telemetry flags force --threads=1 (obs sinks are "
                   "single-threaded)\n";
      threads_ = 1;
    }
    session_.emplace();
    if (trace_file_.is_open()) session_->tracer().set_jsonl_sink(&trace_file_);
  }
}

Runner::~Runner() {
  if (!finished_ && std::uncaught_exceptions() == 0) (void)finish(true);
}

ThreadPool& Runner::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

std::string Runner::get(const std::string& key, const std::string& fallback) const {
  return values_.get(key, fallback);
}

long Runner::get(const std::string& key, long fallback) const {
  return values_.get(key, fallback);
}

double Runner::get(const std::string& key, double fallback) const {
  return values_.get(key, fallback);
}

bool Runner::get(const std::string& key, bool fallback) const {
  return values_.get(key, fallback);
}

std::ostream& Runner::csv() {
  if (csv_file_.is_open()) return csv_file_;
  return std::cout;
}

void Runner::record(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  results_.emplace_back(key, buf);
}

void Runner::record(const std::string& key, const std::string& value) {
  results_.emplace_back(key, '"' + json_escape(value) + '"');
}

void Runner::banner() {
  std::cout << "\n=== " << options_.title << " ===\n";
  std::cout << "reproduces: " << options_.paper_ref << "\n\n";
}

void Runner::write_json(bool ok) {
  std::ofstream& out = json_file_;
  out << "{\n";
  out << "  \"bench\": \"" << json_escape(options_.name) << "\",\n";
  out << "  \"seed\": " << spec_.seed << ",\n";
  out << "  \"threads\": " << threads_ << ",\n";
  out << "  \"checksum\": \"" << checksum_.hex() << "\",\n";
  out << "  \"ok\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"results\": {";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    \"" << json_escape(results_[i].first) << "\": " << results_[i].second;
  }
  out << (results_.empty() ? "}" : "\n  }") << "\n";
  out << "}\n";
  out.close();
}

int Runner::finish(bool ok) {
  if (finished_) return exit_code_;
  finished_ = true;
  for (const auto& unknown : values_.unused()) {
    std::cerr << "warning: unknown flag --" << unknown << "\n";
  }
  if (session_) {
    if (metrics_file_.is_open()) {
      if (spec_.metrics_out.size() >= 5 &&
          spec_.metrics_out.compare(spec_.metrics_out.size() - 5, 5, ".json") == 0) {
        session_->metrics().export_json(metrics_file_);
      } else {
        session_->metrics().export_prometheus(metrics_file_);
      }
      metrics_file_.close();
    }
    if (spec_.profile) session_->profiler().report(std::cerr);
  }
  if (json_file_.is_open()) write_json(ok);
  exit_code_ = ok ? 0 : 1;
  return exit_code_;
}

int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace spacecdn::sim
