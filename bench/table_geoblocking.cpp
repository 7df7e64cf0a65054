// Geo-blocking exposure table: where IP geolocation places each country's
// Starlink subscribers (paper sections 1-2: "unwarranted geo-blocking from
// CDNs when their connections are routed to PoPs deployed in countries where
// the requested content is geo-blocked").
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "measurement/geoblocking.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "table_geoblocking";
  options.title = "Geo-blocking exposure: apparent vs actual subscriber country";
  options.paper_ref = "Bose et al., HotNets '24, sections 1-2 (geo-blocking)";
  sim::Runner runner(argc, argv, options);
  runner.banner();

  const lsn::GroundSegment& ground = runner.world().network().ground();
  const measurement::GeoBlockingStudy study(ground);
  auto rows = study.analyze();
  std::sort(rows.begin(), rows.end(),
            [](const measurement::GeoExposureRow& a,
               const measurement::GeoExposureRow& b) {
              return a.displacement.value() > b.displacement.value();
            });

  ConsoleTable table({"country", "assigned PoP", "appears as", "displacement (km)",
                      "cross-country", "cross-continent"});
  std::size_t shown = 0;
  for (const auto& row : rows) {
    table.add_row({std::string(data::country(row.country_code).name), row.pop_key,
                   row.apparent_country_code,
                   ConsoleTable::format_fixed(row.displacement.value(), 0),
                   row.country_mismatch ? "yes" : "no",
                   row.region_mismatch ? "YES" : "no"});
    for (const double v : {row.displacement.value(), row.country_mismatch ? 1.0 : 0.0,
                           row.region_mismatch ? 1.0 : 0.0}) {
      runner.checksum().add(v);
    }
    if (++shown == 25) break;
  }
  table.render(std::cout);

  const auto summary = study.summarize();
  for (const double v : {static_cast<double>(summary.countries),
                         static_cast<double>(summary.with_country_mismatch),
                         static_cast<double>(summary.with_region_mismatch),
                         summary.mean_displacement.value()}) {
    runner.checksum().add(v);
  }
  std::cout << "\nacross " << summary.countries << " covered countries:\n";
  std::cout << "  - " << summary.with_country_mismatch
            << " appear under a foreign country's IP space (geo-blocking risk)\n";
  std::cout << "  - " << summary.with_region_mismatch
            << " appear on a different continent (licensing-region breakage: "
               "the paper's Mozambique-in-Frankfurt case)\n";
  std::cout << "  - mean geolocation displacement "
            << ConsoleTable::format_fixed(summary.mean_displacement.value(), 0)
            << " km\n";

  runner.record("countries", static_cast<double>(summary.countries));
  runner.record("country_mismatch", static_cast<double>(summary.with_country_mismatch));
  runner.record("region_mismatch", static_cast<double>(summary.with_region_mismatch));
  runner.record("mean_displacement_km", summary.mean_displacement.value());
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
