#include "dtn/registry.hpp"

#include "dtn/baselines.hpp"
#include "dtn/direct.hpp"
#include "dtn/epidemic.hpp"
#include "dtn/maxprop.hpp"
#include "dtn/prophet.hpp"
#include "dtn/spray_focus.hpp"
#include "dtn/spray_wait.hpp"
#include "util/require.hpp"

namespace pfrdtn::dtn {

namespace {

/// Consume an override, tracking which keys were recognized.
class Overrides {
 public:
  explicit Overrides(const std::map<std::string, double>& values)
      : values_(values) {}

  double get(const std::string& key, double fallback) {
    used_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  void finish() const {
    for (const auto& [key, value] : values_) {
      if (!used_.count(key))
        throw ContractViolation("unknown policy parameter: " + key);
    }
  }

 private:
  const std::map<std::string, double>& values_;
  std::set<std::string> used_;
};

/// Names of the null policy: no out-of-filter forwarding at all.
bool is_direct_policy(const std::string& name) {
  return name == "cimbiosys" || name == "direct" || name == "none";
}

}  // namespace

bool DtnPolicy::forwards_out_of_filter() const {
  return !is_direct_policy(name());
}

PolicyPtr make_policy(const std::string& name,
                      const std::map<std::string, double>& overrides) {
  Overrides opts(overrides);
  PolicyPtr policy;
  if (is_direct_policy(name)) {
    policy = std::make_shared<DirectPolicy>();
  } else if (name == "epidemic") {
    EpidemicParams params;
    params.initial_ttl =
        static_cast<std::int64_t>(opts.get("ttl", 10));
    policy = std::make_shared<EpidemicPolicy>(params);
  } else if (name == "spray") {
    SprayWaitParams params;
    params.copies = static_cast<std::int64_t>(opts.get("copies", 8));
    params.binary = opts.get("binary", 1) != 0;
    policy = std::make_shared<SprayWaitPolicy>(params);
  } else if (name == "prophet") {
    ProphetParams params;
    params.p_init = opts.get("p_init", 0.75);
    params.beta = opts.get("beta", 0.25);
    params.gamma = opts.get("gamma", 0.98);
    params.aging_unit_s =
        static_cast<std::int64_t>(opts.get("aging_unit_s", 3600));
    params.grtr_plus = opts.get("grtr_plus", 0) != 0;
    policy = std::make_shared<ProphetPolicy>(params);
  } else if (name == "maxprop") {
    MaxPropParams params;
    params.hop_threshold =
        static_cast<std::int64_t>(opts.get("hop_threshold", 3));
    params.ack_flooding = opts.get("ack_flooding", 0) != 0;
    policy = std::make_shared<MaxPropPolicy>(params);
  } else if (name == "spray-focus") {
    SprayFocusParams params;
    params.copies = static_cast<std::int64_t>(opts.get("copies", 8));
    params.utility_margin_s =
        static_cast<std::int64_t>(opts.get("utility_margin_s", 600));
    policy = std::make_shared<SprayFocusPolicy>(params);
  } else if (name == "first-contact") {
    FirstContactParams params;
    params.max_transfers =
        static_cast<std::int64_t>(opts.get("max_transfers", 0));
    policy = std::make_shared<FirstContactPolicy>(params);
  } else if (name == "two-hop") {
    TwoHopParams params;
    params.relay_budget =
        static_cast<std::int64_t>(opts.get("relay_budget", 8));
    policy = std::make_shared<TwoHopRelayPolicy>(params);
  } else if (name == "p-epidemic") {
    RandomizedEpidemicParams params;
    params.forward_probability = opts.get("p", 0.5);
    params.initial_ttl = static_cast<std::int64_t>(opts.get("ttl", 10));
    params.seed = static_cast<std::uint64_t>(opts.get("seed", 1));
    policy = std::make_shared<RandomizedEpidemicPolicy>(params);
  } else {
    throw ContractViolation("unknown policy: " + name);
  }
  opts.finish();
  return policy;
}

std::vector<std::string> known_policies() {
  return {"cimbiosys", "prophet", "spray", "epidemic", "maxprop"};
}

std::vector<std::string> baseline_policies() {
  return {"first-contact", "two-hop", "p-epidemic", "spray-focus"};
}

}  // namespace pfrdtn::dtn
