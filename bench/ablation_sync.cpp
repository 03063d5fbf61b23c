/// Ablations of protocol mechanics the paper fixes by fiat:
///  - two syncs per encounter (the paper's procedure) vs one;
///  - never deleting messages (the paper's runs) vs tombstoning on
///    delivery;
///  - MaxProp acknowledgement flooding on/off (the one protocol
///    mechanism the paper chose not to exercise).

#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace pfrdtn;
  bench::print_header("Ablation: sync mechanics",
                      "encounter procedure and buffer clearing");

  std::printf("--- syncs per encounter (epidemic) ---\n");
  for (const bool single : {false, true}) {
    auto config = bench::figure_config();
    config.policy = "epidemic";
    config.single_sync_per_encounter = single;
    const auto result = bench::run_experiment(config);
    bench::print_run_summary(single ? "one-sync" : "two-syncs", result);
  }

  std::printf("\n--- delete after delivery (epidemic) ---\n");
  for (const bool del : {false, true}) {
    auto config = bench::figure_config();
    config.policy = "epidemic";
    config.delete_after_delivery = del;
    const auto result = bench::run_experiment(config);
    bench::print_run_summary(del ? "tombstone" : "never-delete", result);
  }

  std::printf("\n--- MaxProp acknowledgement flooding ---\n");
  for (const bool acks : {false, true}) {
    auto config = bench::figure_config();
    config.policy = "maxprop";
    if (acks) config.policy_params["ack_flooding"] = 1.0;
    const auto result = bench::run_experiment(config);
    bench::print_run_summary(acks ? "acks-on" : "acks-off", result);
  }

  std::printf(
      "\nReading: one sync halves per-encounter opportunity; "
      "tombstoning and ack flooding both cut end-of-experiment copies "
      "without hurting delivery.\n");
  return 0;
}
