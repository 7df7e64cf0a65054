// Ablation: content bubbles (predictive geo prefetch, paper section 5) vs
// plain pull-through caching on the overhead satellite.
//
// As satellites sweep across regions, the bubble manager prefetches the
// popularity head of the region coming into view and evicts the previous
// region's content; the baseline warms caches only on demand.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "sim/runner.hpp"
#include "spacecdn/bubbles.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_bubbles";
  options.title = "Ablation: content bubbles vs pull-through caching";
  options.paper_ref = "Bose et al., HotNets '24, section 5 (Content Bubbles)";
  options.default_seed = 10;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  des::Rng rng = runner.rng();
  const cdn::ContentCatalog catalog({.object_count = 5000}, rng);
  cdn::PopularityConfig pop_cfg;
  pop_cfg.global_share = 0.15;
  const cdn::RegionalPopularity popularity(catalog.size(), pop_cfg);

  lsn::StarlinkNetwork& network = runner.world().network();
  // Small caches so that eviction policy matters.
  const space::FleetConfig fleet_cfg{Megabytes{4000.0}, cdn::CachePolicy::kLru};
  space::SatelliteFleet with_bubbles = runner.world().make_fleet(fleet_cfg);
  space::SatelliteFleet baseline = runner.world().make_fleet(fleet_cfg);

  space::BubbleConfig bubble_cfg;
  bubble_cfg.prefetch_top_k = 400;
  const space::ContentBubbleManager bubbles(catalog, popularity, bubble_cfg);

  const std::vector<std::pair<const char*, data::Region>> viewers{
      {"Buenos Aires", data::Region::kLatinAmerica},
      {"Berlin", data::Region::kEurope},
      {"Nairobi", data::Region::kAfrica},
      {"Tokyo", data::Region::kAsia},
  };

  struct Score {
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
  };
  std::vector<Score> bubble_scores(viewers.size()), base_scores(viewers.size());

  const int kEpochs = static_cast<int>(runner.get("epochs", 15L));
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const Milliseconds now = Milliseconds::from_minutes(2.0 * epoch);
    network.set_time(now);
    const auto& snapshot = network.snapshot();

    for (std::size_t v = 0; v < viewers.size(); ++v) {
      const geo::GeoPoint client = data::location(data::city(viewers[v].first));
      const auto serving = snapshot.serving_satellite(client, 25.0);
      if (!serving) continue;

      // Bubble mode: the satellite prefetched the regional head on approach.
      (void)bubbles.refresh(with_bubbles, *serving, client, now);

      for (int r = 0; r < 40; ++r) {
        const auto id = popularity.sample(viewers[v].second, rng);
        const auto& item = catalog.item(id);

        ++bubble_scores[v].total;
        if (with_bubbles.cache(*serving).access(id, now)) ++bubble_scores[v].hits;
        // Bubbles also pull through on miss.
        else (void)with_bubbles.cache(*serving).insert(item, now);

        ++base_scores[v].total;
        if (baseline.cache(*serving).access(id, now)) ++base_scores[v].hits;
        else (void)baseline.cache(*serving).insert(item, now);
      }
    }
  }

  ConsoleTable table({"viewer", "region", "bubble hit rate", "pull-through hit rate",
                      "improvement"});
  for (std::size_t v = 0; v < viewers.size(); ++v) {
    const double hb = bubble_scores[v].total == 0
                          ? 0.0
                          : static_cast<double>(bubble_scores[v].hits) /
                                bubble_scores[v].total;
    const double hp = base_scores[v].total == 0
                          ? 0.0
                          : static_cast<double>(base_scores[v].hits) /
                                base_scores[v].total;
    runner.checksum().add(hb);
    runner.checksum().add(hp);
    table.add_row({viewers[v].first,
                   std::string(data::to_string(viewers[v].second)),
                   ConsoleTable::format_fixed(hb * 100.0, 1) + "%",
                   ConsoleTable::format_fixed(hp * 100.0, 1) + "%",
                   (hp > 0 ? ConsoleTable::format_fixed(hb / hp, 2) + "x" : "-")});
  }
  table.render(std::cout);

  std::cout << "\nHandovers defeat pull-through caching (every new satellite "
               "arrives cold); bubbles keep the regional head resident on "
               "whichever satellite is overhead.\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
