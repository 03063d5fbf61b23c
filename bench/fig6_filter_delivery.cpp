/// Regenerates Figure 6: percentage of messages delivered within 12
/// hours as a host's filter includes the addresses of k other hosts
/// (the delivery rate messages with bounded lifetimes would see).

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
  std::printf("%-10s %-10s %6.1f%%\n", label.c_str(),
              strategy == dtn::FilterStrategy::SelfOnly
                  ? "-"
                  : dtn::filter_strategy_name(strategy),
              result.metrics.delivered_within_hours(12));
}

}  // namespace

int main() {
  using namespace pfrdtn;
  bench::print_header(
      "Figure 6",
      "% messages delivered within 12 hours vs addresses in filter");
  std::printf("%-10s %-10s %-10s\n", "k", "strategy", "within-12h");

  run_row("Self", dtn::FilterStrategy::SelfOnly, 0);
  for (const auto strategy :
       {dtn::FilterStrategy::Random, dtn::FilterStrategy::Selected}) {
    for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
      run_row("+" + std::to_string(k), strategy, k);
    }
  }
  std::printf(
      "\nExpected shape: delivery within 12 h improves with k; "
      "`selected` above `random` at small k.\n");
  return 0;
}
