/// Regenerates Figure 7(b): cumulative distribution of message delays
/// beyond 12 hours (1-10 days). The paper's headline observation:
/// every policy eventually reaches ~100% delivery — guaranteed by the
/// substrate's eventual filter consistency — and the DTN policies
/// compress the worst-case delay from many days to a few.

#include <cstdio>

#include "bench_util.hpp"
#include "dtn/registry.hpp"

int main() {
  using namespace pfrdtn;
  bench::print_header(
      "Figure 7(b)",
      "CDF of message delays in days (1-10), per routing policy");
  std::printf("%-12s %8s %8s\n", "policy", "delay(d)", "%deliv");
  for (const auto& policy : dtn::known_policies()) {
    auto config = bench::figure_config();
    config.policy = policy;
    const auto result = bench::run_experiment(config);
    for (int day = 1; day <= 10; ++day) {
      std::printf("%-12s %8d %8.2f\n", policy.c_str(), day,
                  result.metrics.delivered_within_hours(day * 24.0));
    }
    std::printf("%-12s worst-case delay: %.1f days, delivered %zu/%zu\n",
                policy.c_str(), result.metrics.max_delay_hours() / 24.0,
                result.metrics.delivered_count(),
                result.metrics.injected_count());
  }
  std::printf(
      "\nExpected shape: all policies approach 100%%; cimbiosys needs "
      "many more days than epidemic/maxprop/spray; prophet between.\n");
  return 0;
}
