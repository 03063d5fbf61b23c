/// Beyond the paper: the four evaluated policies side by side with
/// three more classic baselines implemented on the same interface —
/// FirstContact (single custody copy), TwoHopRelay
/// (source-relay-destination only) and randomized p-epidemic — on the
/// identical workload. Useful as a sanity frame: every multi-copy
/// policy should dominate FirstContact; p-epidemic should interpolate
/// between cimbiosys and epidemic as p varies.

#include <cstdio>

#include "bench_util.hpp"
#include "dtn/registry.hpp"

namespace {

void run_one(const std::string& label, const std::string& policy,
             const std::map<std::string, double>& params = {}) {
  using namespace pfrdtn;
  auto config = bench::figure_config();
  config.policy = policy;
  config.policy_params = params;
  const auto result = bench::run_experiment(config);
  bench::print_run_summary(label, result);
}

}  // namespace

int main() {
  using namespace pfrdtn;
  bench::print_header("Extra policies",
                      "paper's four policies vs additional baselines");
  for (const auto& policy : dtn::known_policies()) {
    run_one(policy, policy);
  }
  std::printf("---\n");
  for (const auto& policy : dtn::baseline_policies()) {
    run_one(policy, policy);
  }
  run_one("p-epi(0.1)", "p-epidemic", {{"p", 0.1}});
  run_one("p-epi(0.9)", "p-epidemic", {{"p", 0.9}});
  std::printf(
      "\nReading: multi-copy schemes dominate first-contact; "
      "p-epidemic sweeps between direct-like and full flooding.\n");
  return 0;
}
