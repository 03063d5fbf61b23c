/// Regenerates Figure 10: delay CDF (0-12 h) when each node may store
/// at most 2 relayed messages (FIFO eviction), excluding messages the
/// node itself sent or is a destination of. Basic Cimbiosys is
/// unaffected — it never relays — while the DTN policies lose part of
/// their advantage.

#include <cstdio>

#include "bench_util.hpp"
#include "dtn/registry.hpp"

int main() {
  using namespace pfrdtn;
  bench::print_header(
      "Figure 10",
      "delay CDF, 0-12 h, max 2 relayed messages stored per node");
  std::printf("%-12s %8s %8s\n", "policy", "delay(h)", "%deliv");
  for (const auto& policy : dtn::known_policies()) {
    auto config = bench::figure_config();
    config.policy = policy;
    config.relay_capacity = 2;
    const auto result = bench::run_experiment(config);
    sim::print_delay_cdf(policy, result.metrics, 12.0, 13);
  }
  std::printf(
      "\nExpected shape: cimbiosys identical to its unconstrained "
      "curve; DTN policies reduced but still ahead of cimbiosys.\n");
  return 0;
}
