/// Regenerates Figure 8: average number of copies of each message
/// stored in the network at the time the message was delivered and at
/// the end of the experiment, for each routing policy — the
/// delay/storage trade-off the paper quantifies.

#include <cstdio>

#include "bench_util.hpp"
#include "dtn/registry.hpp"

int main() {
  using namespace pfrdtn;
  bench::print_header(
      "Figure 8",
      "avg copies of messages stored per policy (delivery / end)");
  std::printf("%-12s %-16s %-16s\n", "policy", "at-delivery",
              "at-end-of-exp");
  for (const auto& policy : dtn::known_policies()) {
    auto config = bench::figure_config();
    config.policy = policy;
    const auto result = bench::run_experiment(config);
    std::printf("%-12s %-16.2f %-16.2f\n", policy.c_str(),
                result.metrics.mean_copies_at_delivery(),
                result.metrics.mean_copies_at_end());
  }
  std::printf(
      "\nExpected shape: cimbiosys ~2 copies at delivery (sender + "
      "receiver); spray bounded by its copy budget; epidemic/maxprop "
      "flood toward fleet size by the end.\n");
  return 0;
}
