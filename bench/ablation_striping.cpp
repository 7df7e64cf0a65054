// Ablation: striped video delivery across successive satellites vs fetching
// every segment over today's bent pipe (paper section 4's streaming design).
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "sim/runner.hpp"
#include "spacecdn/striping.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_striping";
  options.title = "Ablation: video striping across successive satellites";
  options.paper_ref = "Bose et al., HotNets '24, section 4 (DASH striping)";
  options.default_seed = 9;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  lsn::StarlinkNetwork& network = runner.world().network();
  const space::StripingPlanner planner(network.constellation());
  const space::StripedPlaybackSimulator sim(network, planner);
  des::Rng rng = runner.rng();

  const Milliseconds video = Milliseconds::from_minutes(40.0);
  const Milliseconds stripe = Milliseconds::from_minutes(4.0);
  const Megabytes stripe_size{180.0};  // ~4 min of 1080p at ~6 Mbps

  ConsoleTable table({"viewer", "mode", "stripes (space/ground)", "startup (ms)",
                      "mean stripe RTT (ms)", "worst stripe RTT (ms)",
                      "hidden prefetch (MB)"});
  for (const char* city_name : {"Maputo", "Nairobi", "London", "Santiago"}) {
    const auto& city = data::city(city_name);
    const auto& country = data::country(city.country_code);
    const geo::GeoPoint user = data::location(city);

    const auto striped =
        sim.simulate_striped(user, country, video, stripe, stripe_size, rng);
    const auto ground =
        sim.simulate_ground(user, country, video, stripe, stripe_size, rng);

    runner.checksum().add(striped.mean_stripe_rtt.value());
    runner.checksum().add(ground.mean_stripe_rtt.value());
    table.add_row({city_name, "striped",
                   std::to_string(striped.stripes_from_space) + "/" +
                       std::to_string(striped.stripes_from_ground),
                   ConsoleTable::format_fixed(striped.startup_latency.value(), 1),
                   ConsoleTable::format_fixed(striped.mean_stripe_rtt.value(), 1),
                   ConsoleTable::format_fixed(striped.worst_stripe_rtt.value(), 1),
                   ConsoleTable::format_fixed(striped.prefetch_upload.value(), 0)});
    table.add_row({city_name, "bent pipe",
                   "0/" + std::to_string(ground.stripes_from_ground),
                   ConsoleTable::format_fixed(ground.startup_latency.value(), 1),
                   ConsoleTable::format_fixed(ground.mean_stripe_rtt.value(), 1),
                   ConsoleTable::format_fixed(ground.worst_stripe_rtt.value(), 1),
                   "0"});
  }
  table.render(std::cout);

  std::cout << "\nPaper's shape: stripes served from the overhead satellite hide "
               "the bent-pipe latency entirely (the prefetch column is the "
               "upload cost the viewer never sees); bent-pipe playback also "
               "suffers loaded-link bufferbloat.\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
