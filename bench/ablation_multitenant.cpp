// Ablation: MetaCDN-style multi-tenant satellite caches -- hard partitioning
// by purchased share vs one shared pool (paper section 5, Economics of Space
// CDNs).
#include <iostream>

#include "bench_util.hpp"
#include "cdn/multitenant.hpp"
#include "cdn/popularity.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_multitenant";
  options.title = "Ablation: multi-tenant satellite cache organisation";
  options.paper_ref = "Bose et al., HotNets '24, section 5 (Economics of Space CDNs)";
  options.default_seed = 14;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  des::Rng rng = runner.rng();
  const cdn::ContentCatalog catalog({.object_count = 8000}, rng);
  const cdn::RegionalPopularity popularity(catalog.size(), {});

  const std::vector<cdn::Tenant> tenants{
      {"video-service", 0.5}, {"software-updates", 0.3}, {"news-site", 0.2}};

  ConsoleTable table({"demand skew", "mode", "tenant", "hit rate", "requests"});
  // Demand skew: how much of the request stream the largest tenant drives.
  for (const double skew : {0.34, 0.6, 0.9}) {
    for (const auto mode : {cdn::TenancyMode::kPartitioned, cdn::TenancyMode::kShared}) {
      cdn::MultiTenantCache cache(Megabytes{6000.0}, tenants, mode);
      des::Rng workload(static_cast<std::uint64_t>(runner.get("workload-seed", 15L)));
      const std::vector<double> weights{skew, (1.0 - skew) * 0.6, (1.0 - skew) * 0.4};
      std::vector<std::uint64_t> requests(tenants.size(), 0);
      const long request_count = runner.get("requests", 80000L);
      for (long i = 0; i < request_count; ++i) {
        const std::size_t tenant = workload.weighted_index(weights);
        const auto id = popularity.sample(data::Region::kNorthAmerica, workload);
        (void)cache.serve(tenant, catalog.item(id),
                          Milliseconds{static_cast<double>(i)});
        ++requests[tenant];
      }
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        runner.checksum().add(cache.tenant_stats(t).hit_rate());
        table.add_row({ConsoleTable::format_fixed(skew, 2),
                       std::string(cdn::to_string(mode)), tenants[t].name,
                       ConsoleTable::format_fixed(
                           cache.tenant_stats(t).hit_rate() * 100.0, 1) +
                           "%",
                       std::to_string(requests[t])});
      }
    }
  }
  table.render(std::cout);

  std::cout << "\nExpected shape: with balanced demand the two designs tie; as "
               "one tenant dominates the request mix, the shared pool's "
               "statistical multiplexing lifts its hit rate above its "
               "purchased share, at the cost of the quiet tenants' isolation.\n";
  return runner.finish();
}

}  // namespace

int main(int argc, char** argv) { return spacecdn::sim::guarded_main(argc, argv, run); }
