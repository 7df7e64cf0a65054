// Table 1: average geographical distance to the best (lowest-latency) CDN
// server and the corresponding median minimum RTTs, Starlink vs terrestrial,
// for the eleven countries the paper lists.
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "measurement/analysis.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

struct PaperRow {
  const char* code;
  double terr_km, terr_ms, star_km, star_ms;
};

// Reference values transcribed from the paper's Table 1.
constexpr PaperRow kPaper[] = {
    {"GT", 6.9, 7.0, 1220.9, 44.2},    {"MZ", 5.0, 7.2, 8776.5, 138.7},
    {"CY", 34.7, 7.45, 2595.3, 55.35}, {"SZ", 301.8, 12.8, 4731.6, 122.7},
    {"HT", 6.1, 1.5, 2063.2, 50.0},    {"KE", 197.5, 16.0, 6310.8, 110.9},
    {"ZM", 1202.64, 44.0, 7545.9, 143.5}, {"RW", 9.25, 5.0, 3762.8, 87.5},
    {"LT", 168.6, 12.4, 1243.2, 40.0}, {"ES", 375.3, 14.3, 13.4, 33.0},
    {"JP", 253.0, 9.0, 57.0, 34.0},
};

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "table1_distance_rtt";
  options.title = "Table 1: distance to the best CDN server and median minRTT";
  options.paper_ref = "Bose et al., HotNets '24, Table 1";
  options.default_seed = 20240318;  // the AIM campaign epoch
  options.defaults.tests_per_city = 40;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  measurement::AimCampaign& campaign = runner.world().aim();

  std::vector<measurement::SpeedTestRecord> records;
  for (const auto& row : kPaper) {
    auto r = campaign.run_country(data::country(row.code));
    records.insert(records.end(), std::make_move_iterator(r.begin()),
                   std::make_move_iterator(r.end()));
  }
  const measurement::AimAnalysis analysis(std::move(records));

  ConsoleTable table({"Country", "Terr km (paper)", "Terr km (ours)",
                      "Terr minRTT (paper)", "Terr minRTT (ours)",
                      "Star km (paper)", "Star km (ours)", "Star minRTT (paper)",
                      "Star minRTT (ours)"});
  for (const auto& paper : kPaper) {
    const auto row = analysis.country_row(paper.code);
    if (!row) continue;
    for (const double v : {row->terrestrial_distance_km, row->terrestrial_min_rtt_ms,
                           row->starlink_distance_km, row->starlink_min_rtt_ms}) {
      runner.checksum().add(v);
    }
    table.add_row({std::string(data::country(paper.code).name),
                   ConsoleTable::format_fixed(paper.terr_km, 1),
                   ConsoleTable::format_fixed(row->terrestrial_distance_km, 1),
                   ConsoleTable::format_fixed(paper.terr_ms, 1),
                   ConsoleTable::format_fixed(row->terrestrial_min_rtt_ms, 1),
                   ConsoleTable::format_fixed(paper.star_km, 1),
                   ConsoleTable::format_fixed(row->starlink_distance_km, 1),
                   ConsoleTable::format_fixed(paper.star_ms, 1),
                   ConsoleTable::format_fixed(row->starlink_min_rtt_ms, 1)});
  }
  table.render(std::cout);

  std::cout << "\nShape checks (paper's qualitative claims):\n";
  int starlink_worse = 0, rows = 0;
  for (const auto& paper : kPaper) {
    const auto row = analysis.country_row(paper.code);
    if (!row) continue;
    ++rows;
    if (row->starlink_min_rtt_ms > row->terrestrial_min_rtt_ms) ++starlink_worse;
  }
  std::cout << "  - Starlink worse than terrestrial in " << starlink_worse << "/" << rows
            << " countries (paper: all except local-PoP countries stay close)\n";
  const auto mz = analysis.country_row("MZ");
  if (mz) {
    std::cout << "  - Mozambique Starlink distance " << static_cast<int>(mz->starlink_distance_km)
              << " km (paper: 8,776 km via Frankfurt)\n";
    runner.record("mz_starlink_distance_km", mz->starlink_distance_km);
  }
  runner.record("starlink_worse_countries", static_cast<double>(starlink_worse));
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
