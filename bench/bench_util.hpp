#pragma once

/// \file bench_util.hpp
/// Shared scaffolding for the figure-reproduction benches: consistent
/// headers, the paper-scale configuration, and an optional
/// PFRDTN_BENCH_SCALE environment variable (0 < scale <= 1) to run
/// reduced-scale versions of every figure for quick iteration. When a
/// bench exits it prints the number of one-way syncs its emulations
/// made to stderr ("syncs=N"; tools/bench_emulation.sh reads it), so
/// stdout holds nothing but the figure.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.hpp"

namespace pfrdtn::bench {

/// One-way syncs made by this process's experiments so far.
inline std::uint64_t syncs_run = 0;

/// Prints syncs_run to stderr at exit.
struct SyncReport {
  ~SyncReport() {
    std::fprintf(stderr, "syncs=%llu\n",
                 static_cast<unsigned long long>(syncs_run));
  }
};
inline SyncReport sync_report;

/// sim::run_experiment, counting the syncs it makes: two per encounter,
/// or one in single-sync mode.
inline sim::EmulationResult run_experiment(
    const sim::EmulationConfig& config) {
  sim::EmulationResult result = sim::run_experiment(config);
  syncs_run += result.metrics.encounter_count() *
               (config.single_sync_per_encounter ? 1 : 2);
  return result;
}

/// The figure benches' base configuration: paper scale unless
/// PFRDTN_BENCH_SCALE shrinks it.
inline sim::EmulationConfig figure_config(std::uint64_t seed = 4) {
  const char* scale_env = std::getenv("PFRDTN_BENCH_SCALE");
  if (scale_env != nullptr) {
    const double scale = std::atof(scale_env);
    if (scale > 0.0 && scale < 1.0) return sim::small_config(scale, seed);
  }
  return sim::paper_config(seed);
}

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::printf("==================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("Paper: Gilbert et al., \"Peer-to-peer Data Replication "
              "Meets Delay Tolerant Networking\", ICDCS 2011\n");
  std::printf("==================================================\n");
}

inline void print_run_summary(const std::string& label,
                              const sim::EmulationResult& result) {
  const auto delays = result.metrics.delay_distribution();
  std::printf(
      "%-12s delivered %3zu/%3zu  mean %6.1f h  median %6.1f h  "
      "max %5.1f d  copies@delivery %5.2f  copies@end %5.2f\n",
      label.c_str(), result.metrics.delivered_count(),
      result.metrics.injected_count(),
      delays.count() ? delays.mean() : 0.0,
      delays.count() ? delays.quantile(0.5) : 0.0,
      result.metrics.max_delay_hours() / 24.0,
      result.metrics.mean_copies_at_delivery(),
      result.metrics.mean_copies_at_end());
}

}  // namespace pfrdtn::bench
