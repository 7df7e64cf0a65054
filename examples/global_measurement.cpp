// Global measurement campaign: run the synthetic Cloudflare-AIM study over
// every Starlink-covered country and export the per-country aggregation as
// CSV -- the workflow behind the paper's Figure 2 and Table 1.
//
//   $ ./examples/global_measurement > aim_summary.csv
//   $ ./examples/global_measurement --tests-per-city=50 --seed=7 > aim_summary.csv
#include <iostream>

#include "data/datasets.hpp"
#include "measurement/aim.hpp"
#include "measurement/analysis.hpp"
#include "sim/runner.hpp"
#include "util/csv.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "global_measurement";
  options.default_seed = 20240318;
  options.defaults.tests_per_city = 25;
  // No banner: stdout is the CSV (redirect it, or pass --csv-out=FILE).
  sim::Runner runner(argc, argv, options);
  measurement::AimCampaign& campaign = runner.world().aim();

  std::cerr << "running speed tests from "
            << data::starlink_countries().size() << " countries...\n";
  const measurement::AimAnalysis analysis(campaign.run());
  std::cerr << "collected " << analysis.records().size() << " records\n";

  CsvWriter csv(runner.csv(),
                {"country", "region", "terrestrial_distance_km", "terrestrial_min_rtt_ms",
                 "starlink_distance_km", "starlink_min_rtt_ms", "delta_ms"});
  for (const auto& code : analysis.countries()) {
    const auto row = analysis.country_row(code);
    if (!row) continue;
    const auto& info = data::country(code);
    csv.row({std::string(info.name), std::string(data::to_string(info.region)),
             CsvWriter::format_number(row->terrestrial_distance_km),
             CsvWriter::format_number(row->terrestrial_min_rtt_ms),
             CsvWriter::format_number(row->starlink_distance_km),
             CsvWriter::format_number(row->starlink_min_rtt_ms),
             CsvWriter::format_number(row->starlink_min_rtt_ms -
                                      row->terrestrial_min_rtt_ms)});
  }
  std::cerr << "wrote " << csv.rows_written() << " country rows\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
