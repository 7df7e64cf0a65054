// Figure 5: time to first contentful paint (FCP) over Starlink and
// terrestrial access in Germany and the United Kingdom -- the paper's
// best-case countries (both have local PoPs), where Starlink's median FCP is
// still ~200 ms higher.
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
  options.name = "fig5_fcp";
  options.title = "Figure 5: first contentful paint, Starlink vs terrestrial (DE, GB)";
  options.paper_ref = "Bose et al., HotNets '24, Figure 5";
  options.default_seed = 20240318;  // the NetMet campaign epoch
  sim::Runner runner(argc, argv, options);
  runner.banner();

  measurement::NetMetConfig cfg;
  cfg.fetches_per_page =
      static_cast<std::uint32_t>(runner.get("fetches-per-page", 15L));
  cfg.seed = runner.seed();
  measurement::NetMetCampaign campaign(runner.world().network(), cfg);

  std::vector<std::string> labels;
  std::vector<des::SampleSet> sets;
  for (const char* code : {"DE", "GB"}) {
    const auto records = campaign.run_country(data::country(code));
    des::SampleSet star, terr;
    for (const auto& r : records) {
      (r.isp == measurement::IspType::kStarlink ? star : terr)
          .add(r.first_contentful_paint.seconds());
    }
    labels.push_back(std::string(code) + " starlink");
    sets.push_back(std::move(star));
    labels.push_back(std::string(code) + " terrestrial");
    sets.push_back(std::move(terr));
  }

  std::vector<const des::SampleSet*> series;
  for (const auto& s : sets) series.push_back(&s);
  bench::print_box_table(labels, series, "s");

  std::cout << "\nPaper's shape: median FCP over Starlink is ~0.2 s higher than "
               "terrestrial in both countries despite local PoPs.\n";
  for (std::size_t i = 0; i + 1 < sets.size(); i += 2) {
    const double gap = sets[i].median() - sets[i + 1].median();
    std::cout << "  " << labels[i].substr(0, 2) << ": Starlink median FCP is "
              << ConsoleTable::format_fixed(gap * 1000.0, 0) << " ms higher\n";
    runner.record(labels[i].substr(0, 2) + "_fcp_gap_ms", gap * 1000.0);
  }
  for (const auto& s : sets) {
    for (const double v : s.raw()) runner.checksum().add(v);
  }
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
