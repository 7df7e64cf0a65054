// Ablation: hierarchical (edge -> regional -> origin) vs flat edge-only CDN
// under a regional Zipf workload -- the tree topology the paper's section 2
// describes as the standard CDN design.
#include <iostream>

#include "bench_util.hpp"
#include "cdn/deployment.hpp"
#include "cdn/hierarchy.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "sim/runner.hpp"
#include "terrestrial/isp.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_hierarchy";
  options.title = "Ablation: hierarchical vs flat CDN topology";
  options.paper_ref = "substrate design choice (paper section 2, CDN hierarchy)";
  options.default_seed = 17;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  des::Rng rng = runner.rng();
  const cdn::ContentCatalog catalog({.object_count = 30000}, rng);
  const cdn::RegionalPopularity popularity(catalog.size(), {});

  // Small edges so the hierarchy has something to do.
  cdn::HierarchyConfig tree_cfg;
  tree_cfg.edge_capacity = Megabytes{5000.0};
  tree_cfg.regional_capacity = Megabytes{60000.0};
  cdn::CdnHierarchy tree(data::cdn_sites(), tree_cfg);

  cdn::DeploymentConfig flat_cfg;
  flat_cfg.edge_capacity = Megabytes{5000.0};
  cdn::CdnDeployment flat(data::cdn_sites(), flat_cfg);
  const terrestrial::Backbone& backbone = runner.world().backbone();

  des::Rng workload(static_cast<std::uint64_t>(runner.get("workload-seed", 18L)));
  des::SampleSet tree_latency, flat_latency;
  const int requests = static_cast<int>(runner.get("requests", 40000L));
  for (int i = 0; i < requests; ++i) {
    // A random client city drives both systems with the same request.
    const auto& city =
        data::cities()[workload.uniform_int(0, data::cities().size() - 1)];
    const auto region = data::country(city.country_code).region;
    const auto id = popularity.sample(region, workload);
    const auto& item = catalog.item(id);
    const geo::GeoPoint client = data::location(city);
    const Milliseconds now{static_cast<double>(i)};

    const std::size_t edge = tree.nearest_edge(client);
    const Milliseconds client_rtt =
        backbone.rtt(client, data::location(tree.edge_site(edge)));
    tree_latency.add(tree.serve(edge, item, client_rtt, now).first_byte.value());

    const std::size_t site = flat.nearest_site(client);
    const Milliseconds origin_rtt =
        backbone.rtt(flat.site_location(site), flat.origin_location());
    flat_latency.add(
        flat.serve(site, item, client_rtt, origin_rtt, now).first_byte.value());
  }

  const auto& stats = tree.stats();
  ConsoleTable table({"topology", "edge hits", "regional hits", "origin fetches",
                      "mean first byte (ms)", "p95 (ms)"});
  table.add_row({"hierarchical", std::to_string(stats.edge_hits),
                 std::to_string(stats.regional_hits),
                 std::to_string(stats.origin_fetches),
                 ConsoleTable::format_fixed(tree_latency.mean(), 1),
                 ConsoleTable::format_fixed(tree_latency.quantile(0.95), 1)});
  std::uint64_t flat_hits = 0, flat_misses = 0;
  for (std::size_t s = 0; s < flat.site_count(); ++s) {
    flat_hits += flat.cache(s).stats().hits;
    flat_misses += flat.cache(s).stats().misses;
  }
  table.add_row({"flat", std::to_string(flat_hits), "-", std::to_string(flat_misses),
                 ConsoleTable::format_fixed(flat_latency.mean(), 1),
                 ConsoleTable::format_fixed(flat_latency.quantile(0.95), 1)});
  table.render(std::cout);

  std::cout << "\nExpected shape: the regional tier absorbs most edge misses "
               "(origin fetches collapse), cutting the mean and tail first-byte "
               "latency -- why CDNs are trees, and what the PoP-centric LSN "
               "mapping breaks for satellite subscribers.\n";
  for (const double v : tree_latency.raw()) runner.checksum().add(v);
  for (const double v : flat_latency.raw()) runner.checksum().add(v);
  runner.record("tree_mean_first_byte_ms", tree_latency.mean());
  runner.record("flat_mean_first_byte_ms", flat_latency.mean());
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
