/// Regenerates Figure 5: average message delay of the simple DTN
/// application (unmodified substrate) as a host's filter includes the
/// addresses of k other hosts, for the `random` and `selected`
/// population strategies. k = 0 ("Self") is basic Cimbiosys.

#include <cstdio>
#include <string>

#include "bench_util.hpp"

namespace {

void run_row(const std::string& label, pfrdtn::dtn::FilterStrategy strategy,
             std::size_t k) {
  using namespace pfrdtn;
  auto config = bench::figure_config();
  config.policy = "cimbiosys";
  config.strategy = strategy;
  config.filter_k = k;
  const auto result = bench::run_experiment(config);
  const auto delays = result.metrics.delay_distribution();
  std::printf("%-10s %-10s %-14.1f %zu/%zu\n", label.c_str(),
              strategy == dtn::FilterStrategy::SelfOnly
                  ? "-"
                  : dtn::filter_strategy_name(strategy),
              delays.count() ? delays.mean() : 0.0,
              result.metrics.delivered_count(),
              result.metrics.injected_count());
}

}  // namespace

int main() {
  using namespace pfrdtn;
  bench::print_header(
      "Figure 5",
      "average message delay vs addresses in filter (hours)");
  std::printf("%-10s %-10s %-14s %-12s\n", "k", "strategy",
              "avg-delay(h)", "delivered");

  run_row("Self", dtn::FilterStrategy::SelfOnly, 0);
  for (const auto strategy :
       {dtn::FilterStrategy::Random, dtn::FilterStrategy::Selected}) {
    for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
      run_row("+" + std::to_string(k), strategy, k);
    }
  }
  std::printf(
      "\nExpected shape: delay falls steeply as k grows; `selected` "
      "beats `random` at small k; both converge for large k.\n");
  return 0;
}
