#include "dtn/registry.hpp"

#include <gtest/gtest.h>

#include "dtn/epidemic.hpp"
#include "dtn/maxprop.hpp"
#include "dtn/prophet.hpp"
#include "dtn/spray_wait.hpp"

namespace pfrdtn::dtn {
namespace {

TEST(Registry, CreatesAllKnownPolicies) {
  for (const auto& name : known_policies()) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
    EXPECT_FALSE(policy->summary().empty());
  }
}

TEST(Registry, KnownPoliciesMatchPaperOrder) {
  EXPECT_EQ(known_policies(),
            (std::vector<std::string>{"cimbiosys", "prophet", "spray",
                                      "epidemic", "maxprop"}));
}

TEST(Registry, Aliases) {
  EXPECT_EQ(make_policy("direct")->name(), "cimbiosys");
  EXPECT_EQ(make_policy("none")->name(), "cimbiosys");
}

TEST(Registry, OnlyTheNullPolicyForwardsNothingOutOfFilter) {
  for (const auto& name : {"cimbiosys", "direct", "none"})
    EXPECT_FALSE(make_policy(name)->forwards_out_of_filter()) << name;
  std::vector<std::string> forwarding = known_policies();
  for (const auto& name : baseline_policies()) forwarding.push_back(name);
  for (const auto& name : forwarding) {
    if (name == "cimbiosys") continue;
    EXPECT_TRUE(make_policy(name)->forwards_out_of_filter()) << name;
  }
}

TEST(Registry, UnknownPolicyThrows) {
  EXPECT_THROW(make_policy("gossipzilla"), ContractViolation);
}

TEST(Registry, UnknownParameterThrows) {
  EXPECT_THROW(make_policy("epidemic", {{"bogus", 1.0}}),
               ContractViolation);
  EXPECT_THROW(make_policy("cimbiosys", {{"ttl", 5.0}}),
               ContractViolation);
}

TEST(Registry, Table2DefaultsApplied) {
  const auto epidemic = std::dynamic_pointer_cast<EpidemicPolicy>(
      make_policy("epidemic"));
  ASSERT_NE(epidemic, nullptr);
  EXPECT_EQ(epidemic->params().initial_ttl, 10);

  const auto spray =
      std::dynamic_pointer_cast<SprayWaitPolicy>(make_policy("spray"));
  ASSERT_NE(spray, nullptr);
  EXPECT_EQ(spray->params().copies, 8);
  EXPECT_TRUE(spray->params().binary);

  const auto prophet = std::dynamic_pointer_cast<ProphetPolicy>(
      make_policy("prophet"));
  ASSERT_NE(prophet, nullptr);
  EXPECT_DOUBLE_EQ(prophet->params().p_init, 0.75);
  EXPECT_DOUBLE_EQ(prophet->params().beta, 0.25);
  EXPECT_DOUBLE_EQ(prophet->params().gamma, 0.98);
  EXPECT_FALSE(prophet->params().grtr_plus);

  const auto maxprop = std::dynamic_pointer_cast<MaxPropPolicy>(
      make_policy("maxprop"));
  ASSERT_NE(maxprop, nullptr);
  EXPECT_EQ(maxprop->params().hop_threshold, 3);
  EXPECT_FALSE(maxprop->params().ack_flooding);
}

TEST(Registry, OverridesApplied) {
  const auto epidemic = std::dynamic_pointer_cast<EpidemicPolicy>(
      make_policy("epidemic", {{"ttl", 4.0}}));
  EXPECT_EQ(epidemic->params().initial_ttl, 4);

  const auto spray = std::dynamic_pointer_cast<SprayWaitPolicy>(
      make_policy("spray", {{"copies", 16.0}, {"binary", 0.0}}));
  EXPECT_EQ(spray->params().copies, 16);
  EXPECT_FALSE(spray->params().binary);

  const auto prophet = std::dynamic_pointer_cast<ProphetPolicy>(
      make_policy("prophet", {{"gamma", 0.9}, {"grtr_plus", 1.0}}));
  EXPECT_DOUBLE_EQ(prophet->params().gamma, 0.9);
  EXPECT_TRUE(prophet->params().grtr_plus);

  const auto maxprop = std::dynamic_pointer_cast<MaxPropPolicy>(
      make_policy("maxprop", {{"ack_flooding", 1.0}}));
  EXPECT_TRUE(maxprop->params().ack_flooding);
}

}  // namespace
}  // namespace pfrdtn::dtn
