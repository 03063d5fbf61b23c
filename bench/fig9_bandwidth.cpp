/// Regenerates Figure 9: delay CDF (0-12 h) when network bandwidth is
/// constrained to a single message exchanged per encounter — the
/// regime where MaxProp's transmission ordering and Spray and Wait's
/// copy limits actually matter.

#include <cstdio>

#include "bench_util.hpp"
#include "dtn/registry.hpp"

int main() {
  using namespace pfrdtn;
  bench::print_header(
      "Figure 9",
      "delay CDF, 0-12 h, one message exchanged per encounter");
  std::printf("%-12s %8s %8s\n", "policy", "delay(h)", "%deliv");
  for (const auto& policy : dtn::known_policies()) {
    auto config = bench::figure_config();
    config.policy = policy;
    config.encounter_budget = 1;
    const auto result = bench::run_experiment(config);
    sim::print_delay_cdf(policy, result.metrics, 12.0, 13);
    std::printf("%-12s items transferred: %zu over %zu encounters\n",
                policy.c_str(), result.metrics.traffic().items_sent,
                result.metrics.encounter_count());
  }
  std::printf(
      "\nExpected shape: overall delivery drops versus Figure 7(a); "
      "DTN policies still clearly above basic cimbiosys.\n");
  return 0;
}
