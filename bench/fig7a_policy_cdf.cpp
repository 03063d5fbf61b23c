/// Regenerates Figure 7(a): cumulative distribution of message delays
/// for the first 12 hours, for each DTN routing policy plugged into
/// the replication substrate, plus the unmodified substrate.

#include <cstdio>

#include "bench_util.hpp"
#include "dtn/registry.hpp"

int main() {
  using namespace pfrdtn;
  bench::print_header(
      "Figure 7(a)",
      "CDF of message delays, 0-12 hours, per routing policy");
  std::printf("%-12s %8s %8s\n", "policy", "delay(h)", "%deliv");
  for (const auto& policy : dtn::known_policies()) {
    auto config = bench::figure_config();
    config.policy = policy;
    const auto result = bench::run_experiment(config);
    sim::print_delay_cdf(policy, result.metrics, 12.0, 13);
  }
  std::printf(
      "\nExpected shape: epidemic = maxprop fastest, spray close, "
      "prophet next, cimbiosys lowest.\n");
  return 0;
}
