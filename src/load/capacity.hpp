// Finite link capacities for the load engine: event-driven queues and
// admission control.
//
// The latency-only experiments treat links as infinitely fast; under
// request-level load that hides the very effect the paper worries about
// (section 3.2: loaded Starlink paths exceed 200 ms).  Here every
// bottleneck link is a single-server queue driven by des::Simulator, so a
// transfer's completion time is propagation + serialization + the queueing
// its bytes actually experience.  Cut-through links of a multi-hop ISL path
// are charged analytically via net::LinkLoad; the bottleneck hop (satellite
// downlink, gateway feeder) gets an explicit queue.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "util/units.hpp"

namespace spacecdn::load {

/// Service order of a LinkQueue.
enum class QueueDiscipline {
  kFifo,  ///< strict arrival order
  kDrr,   ///< deficit round robin across flow classes (per-city fairness)
};

[[nodiscard]] QueueDiscipline parse_queue_discipline(const std::string& name);

/// Capacity annotations of every contended resource, in one place so a
/// single `link-capacity` scale knob can tighten or relax the whole system.
struct CapacityConfig {
  /// Aggregate Ku-band downlink of one satellite across its beams.
  Mbps satellite_downlink{16'000.0};
  /// Aggregate uplink (request path; requests are small, so this only
  /// matters under extreme asymmetry).
  Mbps satellite_uplink{4'000.0};
  /// Gateway (ground-station) feeder-link capacity.
  Mbps gateway{10'000.0};
  /// Optical ISL line rate.
  Mbps isl{100'000.0};
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  /// DRR quantum added to a flow class's deficit per round.
  Megabytes drr_quantum{8.0};
  /// Concurrent transfers one satellite serves before admission rejects
  /// (onboard radio scheduler slots); 0 disables admission control.
  std::size_t max_transfers_per_satellite = 64;

  /// Scales every rate by `k` (the `link-capacity` scenario knob).
  [[nodiscard]] CapacityConfig scaled(double k) const noexcept;
};

/// One single-server queue over a finite-rate link, driven by the simulator.
///
/// submit() enqueues a transfer; its completion callback fires when the last
/// byte has been serialized, carrying the queueing delay the transfer saw.
/// FIFO serves in arrival order; DRR round-robins across flow classes with a
/// per-round byte quantum, so one city's elephant cannot starve the others.
class LinkQueue {
 public:
  using Completion = std::function<void(Milliseconds queue_wait)>;

  /// @throws spacecdn::ConfigError on non-positive capacity or quantum.
  LinkQueue(des::Simulator& sim, Mbps capacity,
            QueueDiscipline discipline = QueueDiscipline::kFifo,
            Megabytes drr_quantum = Megabytes{8.0});

  /// Enqueues `volume` for transmission; `done(queue_wait)` runs at service
  /// completion.  `flow_class` selects the DRR class (ignored under FIFO).
  void submit(Megabytes volume, std::uint64_t flow_class, Completion done);

  [[nodiscard]] Mbps capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t peak_depth() const noexcept { return peak_depth_; }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }
  [[nodiscard]] Megabytes carried() const noexcept { return carried_; }
  /// Total time the server spent transmitting.
  [[nodiscard]] Milliseconds busy_time() const noexcept { return busy_time_; }
  /// Busy fraction over [0, horizon].
  [[nodiscard]] double utilization(Milliseconds horizon) const noexcept;

 private:
  struct Pending {
    Megabytes volume;
    std::uint64_t flow_class = 0;
    Completion done;
    Milliseconds enqueued_at{0.0};
  };

  /// Starts the next transfer if the server is idle and work is pending.
  void start_next();
  /// Removes and returns the next transfer per the discipline.
  [[nodiscard]] Pending pop_next();

  des::Simulator* sim_;
  Mbps capacity_;
  QueueDiscipline discipline_;
  Megabytes quantum_;
  bool busy_ = false;

  std::deque<Pending> fifo_;
  // DRR state: classes in activation order, each with its backlog + deficit.
  struct DrrClass {
    std::deque<Pending> backlog;
    double deficit_mb = 0.0;
  };
  std::map<std::uint64_t, DrrClass> classes_;
  std::vector<std::uint64_t> active_classes_;
  std::size_t rr_cursor_ = 0;

  std::size_t depth_ = 0;
  std::size_t peak_depth_ = 0;
  std::uint64_t served_ = 0;
  Megabytes carried_{0.0};
  Milliseconds busy_time_{0.0};
};

/// Per-satellite concurrent-transfer cap with a backpressure hook.
///
/// A satellite's radio scheduler serves a bounded number of simultaneous
/// flows; beyond it the load engine *rejects* rather than queues, which is
/// what keeps tail latency bounded past saturation (the ablation_overload
/// bench's graceful-degradation claim).  The reject hook feeds rejections
/// into the degradation policy (load/degradation.hpp: hot-satellite marks,
/// shed-to-ground); independent of any hook, every rejection lands in
/// obs::metrics().
class AdmissionController {
 public:
  using RejectHook = std::function<void(std::uint32_t satellite, std::size_t active)>;

  /// `max_concurrent` == 0 disables the cap (everything admits).
  AdmissionController(std::uint32_t satellite_count, std::size_t max_concurrent);

  /// Admits a transfer on `satellite`, or counts a rejection and fires the
  /// hook.  Every successful try_admit must be paired with release().
  [[nodiscard]] bool try_admit(std::uint32_t satellite);
  void release(std::uint32_t satellite);

  void set_reject_hook(RejectHook hook) { reject_hook_ = std::move(hook); }

  [[nodiscard]] std::size_t active(std::uint32_t satellite) const;
  [[nodiscard]] std::size_t peak_active() const noexcept { return peak_active_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::size_t max_concurrent() const noexcept { return max_concurrent_; }

 private:
  std::size_t max_concurrent_;
  std::vector<std::size_t> active_;
  std::size_t peak_active_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  RejectHook reject_hook_;
};

}  // namespace spacecdn::load
