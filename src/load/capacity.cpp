#include "load/capacity.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace spacecdn::load {

QueueDiscipline parse_queue_discipline(const std::string& name) {
  std::string lower;
  for (const char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "fifo") return QueueDiscipline::kFifo;
  if (lower == "drr") return QueueDiscipline::kDrr;
  throw ConfigError("unknown queue discipline '" + name + "' (fifo/drr)");
}

CapacityConfig CapacityConfig::scaled(double k) const noexcept {
  CapacityConfig out = *this;
  out.satellite_downlink = satellite_downlink * k;
  out.satellite_uplink = satellite_uplink * k;
  out.gateway = gateway * k;
  out.isl = isl * k;
  return out;
}

LinkQueue::LinkQueue(des::Simulator& sim, Mbps capacity, QueueDiscipline discipline,
                     Megabytes drr_quantum)
    : sim_(&sim), capacity_(capacity), discipline_(discipline), quantum_(drr_quantum) {
  SPACECDN_EXPECT(capacity.value() > 0.0, "link queue needs positive capacity");
  SPACECDN_EXPECT(discipline != QueueDiscipline::kDrr || drr_quantum.value() > 0.0,
                  "DRR needs a positive quantum");
}

void LinkQueue::submit(Megabytes volume, std::uint64_t flow_class, Completion done) {
  Pending pending{volume, flow_class, std::move(done), sim_->now()};
  if (discipline_ == QueueDiscipline::kFifo) {
    fifo_.push_back(std::move(pending));
  } else {
    DrrClass& cls = classes_[flow_class];
    if (cls.backlog.empty()) active_classes_.push_back(flow_class);
    cls.backlog.push_back(std::move(pending));
  }
  ++depth_;
  peak_depth_ = std::max(peak_depth_, depth_);
  start_next();
}

LinkQueue::Pending LinkQueue::pop_next() {
  if (discipline_ == QueueDiscipline::kFifo) {
    Pending next = std::move(fifo_.front());
    fifo_.pop_front();
    return next;
  }
  // DRR: visit active classes round-robin, topping up each deficit by one
  // quantum per visit, until some head-of-class transfer fits.  Deficits
  // grow every round, so the loop terminates for any transfer size.
  for (;;) {
    if (rr_cursor_ >= active_classes_.size()) rr_cursor_ = 0;
    DrrClass& cls = classes_[active_classes_[rr_cursor_]];
    cls.deficit_mb += quantum_.value();
    if (cls.backlog.front().volume.value() <= cls.deficit_mb) {
      Pending next = std::move(cls.backlog.front());
      cls.backlog.pop_front();
      cls.deficit_mb -= next.volume.value();
      if (cls.backlog.empty()) {
        // An emptied class leaves the round and forfeits its deficit.
        cls.deficit_mb = 0.0;
        active_classes_.erase(active_classes_.begin() +
                              static_cast<std::ptrdiff_t>(rr_cursor_));
      } else {
        ++rr_cursor_;
      }
      return next;
    }
    ++rr_cursor_;
  }
}

void LinkQueue::start_next() {
  if (busy_ || depth_ == 0) return;
  busy_ = true;
  Pending next = pop_next();
  const Milliseconds serialization = transmission_delay(next.volume, capacity_);
  const Milliseconds wait = sim_->now() - next.enqueued_at;
  busy_time_ += serialization;
  carried_ += next.volume;
  --depth_;
  sim_->schedule(serialization, [this, wait, done = std::move(next.done)]() {
    busy_ = false;
    ++served_;
    if (done) done(wait);
    start_next();
  });
}

double LinkQueue::utilization(Milliseconds horizon) const noexcept {
  if (horizon.value() <= 0.0) return 0.0;
  return busy_time_ / horizon;
}

AdmissionController::AdmissionController(std::uint32_t satellite_count,
                                         std::size_t max_concurrent)
    : max_concurrent_(max_concurrent), active_(satellite_count, 0) {}

bool AdmissionController::try_admit(std::uint32_t satellite) {
  SPACECDN_EXPECT(satellite < active_.size(), "admission: satellite out of range");
  if (max_concurrent_ != 0 && active_[satellite] >= max_concurrent_) {
    ++rejected_;
    static obs::CounterHandle rejected_total{"spacecdn_admission_rejected_total"};
    rejected_total.inc();
    if (reject_hook_) reject_hook_(satellite, active_[satellite]);
    return false;
  }
  ++active_[satellite];
  ++admitted_;
  peak_active_ = std::max(peak_active_, active_[satellite]);
  return true;
}

void AdmissionController::release(std::uint32_t satellite) {
  SPACECDN_EXPECT(satellite < active_.size() && active_[satellite] > 0,
                  "admission: release without matching admit");
  --active_[satellite];
}

std::size_t AdmissionController::active(std::uint32_t satellite) const {
  SPACECDN_EXPECT(satellite < active_.size(), "admission: satellite out of range");
  return active_[satellite];
}

}  // namespace spacecdn::load
