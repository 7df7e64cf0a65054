// Figure 4: CDF of the difference in HTTP response times (Starlink minus
// terrestrial) for selected countries.  Positive values mean the terrestrial
// ISP answered faster.
#include <iostream>

#include "bench_util.hpp"
#include "data/datasets.hpp"
#include "measurement/web.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "fig4_http_response_time";
  options.title =
      "Figure 4: HTTP response time difference CDF (Starlink - terrestrial)";
  options.paper_ref = "Bose et al., HotNets '24, Figure 4";
  options.default_seed = 20240318;  // the NetMet campaign epoch
  sim::Runner runner(argc, argv, options);
  runner.banner();

  measurement::NetMetConfig cfg;
  cfg.fetches_per_page =
      static_cast<std::uint32_t>(runner.get("fetches-per-page", 12L));
  cfg.seed = runner.seed();
  measurement::NetMetCampaign campaign(runner.world().network(), cfg);

  const std::vector<std::string> countries{"CA", "GB", "DE", "NG"};
  std::vector<des::SampleSet> diffs(countries.size());

  for (std::size_t c = 0; c < countries.size(); ++c) {
    const auto records = campaign.run_country(data::country(countries[c]));
    // Pair consecutive Starlink/terrestrial fetches of the same page run.
    std::vector<double> star, terr;
    for (const auto& r : records) {
      (r.isp == measurement::IspType::kStarlink ? star : terr)
          .push_back(r.http_response.value());
    }
    const std::size_t n = std::min(star.size(), terr.size());
    for (std::size_t i = 0; i < n; ++i) diffs[c].add(star[i] - terr[i]);
  }

  std::vector<const des::SampleSet*> series;
  for (const auto& s : diffs) series.push_back(&s);
  bench::print_cdf_table(countries, series,
                         {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95});

  std::cout << "\nHRT difference in ms; positive = terrestrial faster.\n";
  std::cout << "Paper's shape: terrestrial typically 20-50 ms faster (sometimes "
               "100 ms); Nigeria is the outlier with Starlink faster.\n";
  for (std::size_t c = 0; c < countries.size(); ++c) {
    std::cout << "  " << countries[c] << ": median diff "
              << ConsoleTable::format_fixed(diffs[c].median(), 1) << " ms, "
              << ConsoleTable::format_fixed(100.0 * (1.0 - diffs[c].fraction_below(0.0)),
                                            0)
              << "% of fetches faster on terrestrial\n";
    runner.record(countries[c] + "_median_diff_ms", diffs[c].median());
    for (const double v : diffs[c].raw()) runner.checksum().add(v);
  }
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
