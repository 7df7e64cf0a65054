// Figure 3: median latencies from Maputo, Mozambique, to the Cloudflare CDN
// sites its connections actually reach -- (a) over Starlink, (b) over a
// terrestrial ISP.  The paper's flagship illustration of PoP-centric CDN
// mapping.
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "measurement/analysis.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

/// Prints one side of the figure and feeds every printed number into
/// `checksum`.
void print_side(const spacecdn::measurement::AimAnalysis& analysis,
                spacecdn::measurement::IspType isp, const char* title,
                spacecdn::des::Fnv1aChecksum& checksum) {
  using namespace spacecdn;
  std::cout << "\n--- " << title << " ---\n";
  const auto stats = analysis.site_stats("Maputo", isp);
  ConsoleTable table({"CDN site", "city", "country", "median RTT (ms)", "distance (km)",
                      "samples"});
  std::size_t shown = 0;
  for (const auto& s : stats) {
    const auto& site = data::cdn_site(s.site);
    table.add_row({s.site, std::string(site.city), std::string(site.country_code),
                   ConsoleTable::format_fixed(s.median_idle_rtt.value(), 1),
                   ConsoleTable::format_fixed(s.distance.value(), 0),
                   std::to_string(s.samples)});
    for (const double v : {s.median_idle_rtt.value(), s.distance.value(),
                           static_cast<double>(s.samples)}) {
      checksum.add(v);
    }
    if (++shown == 10) break;  // the paper's maps show the reached subset
  }
  table.render(std::cout);
  const auto opt = analysis.optimal_site("Maputo", isp);
  if (opt) {
    checksum.add(opt->median_idle_rtt.value());
    checksum.add(opt->distance.value());
    std::cout << "optimal: " << opt->site << " at "
              << ConsoleTable::format_fixed(opt->median_idle_rtt.value(), 1) << " ms, "
              << ConsoleTable::format_fixed(opt->distance.value(), 0) << " km\n";
  }
}

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "fig3_maputo_case_study";
  options.title = "Figure 3: Maputo (MPM) case study -- CDN latencies per site";
  options.paper_ref = "Bose et al., HotNets '24, Figure 3a/3b";
  options.default_seed = 20240318;                 // the AIM campaign epoch
  options.defaults.tests_per_city = 200;  // dense sampling so many anycast sites appear
  options.defaults.anycast_noise_ms = 10.0;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  const measurement::AimAnalysis analysis(
      runner.world().aim().run_country(data::country("MZ")));

  print_side(analysis, measurement::IspType::kStarlink,
             "(a) Starlink ISP (paper: best mapping Frankfurt ~160 ms; African "
             "sites >250 ms)",
             runner.checksum());
  print_side(analysis, measurement::IspType::kTerrestrial,
             "(b) Terrestrial ISP (paper: Maputo itself ~20 ms; Johannesburg ~70 ms)",
             runner.checksum());

  if (const auto opt = analysis.optimal_site("Maputo", measurement::IspType::kStarlink)) {
    runner.record("starlink_optimal_site", opt->site);
    runner.record("starlink_optimal_median_ms", opt->median_idle_rtt.value());
  }
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
