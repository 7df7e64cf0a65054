// Ablation: replica count vs ISL hop distance, validating the paper's
// section-4 feasibility argument -- "with around 4 copies distributed within
// each plane, an object can be reachable within 5 hops" -- and the section-5
// storage arithmetic (150 TB/satellite -> >900 PB fleet-wide).
#include <iostream>

#include "bench_util.hpp"
#include "des/random.hpp"
#include "sim/runner.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/placement_map.hpp"
#include "util/table.hpp"

namespace {

// Paper section 5: an HPE DL325-class server attaches ~150 TB; 6,000
// satellites then hold upwards of 900 PB, enough for >300 M 2-hour 1080p
// videos (~3 Mbps streams).
constexpr double kPaperTbPerSatellite = 150.0;
constexpr double kPaperFleetSatellites = 6000.0;
constexpr double kPaperVideoMb = 2.0 * 3600.0 * 3.0 / 8.0;  // 2 h @ 3 Mbps

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_placement";
  options.title = "Ablation: copies-per-plane vs hops to nearest replica";
  options.paper_ref = "Bose et al., HotNets '24, section 4 feasibility claim";
  options.default_seed = 42;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  const orbit::WalkerConstellation& shell = runner.world().constellation();
  des::Rng rng = runner.rng();

  ConsoleTable table({"copies/plane", "plane stride", "total replicas", "mean hops",
                      "p99 hops", "max hops"});
  for (const std::uint32_t stride : {1u, 2u, 4u}) {
    for (const std::uint32_t copies : {1u, 2u, 4u, 6u, 8u}) {
      const space::PlacementMap placement(shell,
                                          {.policy = space::PlacementPolicy::kPerPlane,
                                           .replicas = copies, .plane_stride = stride});
      const auto stats = placement.analyze(4000, 1000, rng);
      const auto replicas = placement.replicas(0).size();
      runner.checksum().add(stats.mean_hops);
      runner.checksum().add(stats.p99_hops);
      table.add_row({std::to_string(copies), std::to_string(stride),
                     std::to_string(replicas),
                     ConsoleTable::format_fixed(stats.mean_hops, 2),
                     ConsoleTable::format_fixed(stats.p99_hops, 1),
                     std::to_string(stats.max_hops)});
    }
  }
  table.render(std::cout);

  std::cout << "\nPaper's claim check: 4 copies/plane, stride 1 keeps the max "
               "within 5 hops (even intra-plane alone: 22/(2*4) -> <=3).\n";

  std::cout << "\nStorage arithmetic (paper section 5):\n";
  const double paper_fleet_pb = kPaperFleetSatellites * kPaperTbPerSatellite / 1000.0;
  const double paper_videos = paper_fleet_pb * 1e9 / kPaperVideoMb;
  std::cout << "  - per satellite: " << kPaperTbPerSatellite
            << " TB (HPE DL325-class server)\n";
  std::cout << "  - 6,000-satellite fleet: " << paper_fleet_pb
            << " PB (paper: upwards of 900 PB)\n";
  std::cout << "  - ~" << static_cast<long>(paper_videos / 1e6)
            << "M 2-hour 1080p videos at 3 Mbps (paper: >300M)\n";
  const double model_gb_per_sat =
      runner.world().fleet_config().capacity_per_satellite.value() / 1000.0;
  std::cout << "Simulated model (--fleet-capacity-mb): " << model_gb_per_sat
            << " GB per satellite, "
            << model_gb_per_sat * shell.size() / 1000.0 << " TB across "
            << shell.size() << " satellites\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
