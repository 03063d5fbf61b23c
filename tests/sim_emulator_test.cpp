#include "sim/emulator.hpp"

#include <gtest/gtest.h>

#include "dtn/registry.hpp"
#include "persist/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace pfrdtn::sim {
namespace {

EmulationConfig tiny_config(const std::string& policy = "cimbiosys") {
  EmulationConfig config = small_config(0.15);
  config.policy = policy;
  config.invariant_check_every = 50;
  return config;
}

TEST(Emulation, RunsAndInjectsAllMessages) {
  Emulation emulation(tiny_config());
  const auto result = emulation.run();
  EXPECT_EQ(result.metrics.injected_count(),
            tiny_config().email.total_messages);
  EXPECT_GT(result.metrics.encounter_count(), 0u);
  EXPECT_EQ(result.days, tiny_config().mobility.days);
}

TEST(Emulation, DeterministicAcrossRuns) {
  const auto a = Emulation(tiny_config("epidemic")).run();
  const auto b = Emulation(tiny_config("epidemic")).run();
  EXPECT_EQ(a.metrics.delivered_count(), b.metrics.delivered_count());
  EXPECT_EQ(a.metrics.traffic().items_sent,
            b.metrics.traffic().items_sent);
  ASSERT_EQ(a.metrics.records().size(), b.metrics.records().size());
  auto it_b = b.metrics.records().begin();
  for (const auto& [id, record] : a.metrics.records()) {
    EXPECT_EQ(record.delivered, it_b->second.delivered);
    ++it_b;
  }
}

TEST(Emulation, EpidemicDeliversMoreThanDirect) {
  const auto direct = Emulation(tiny_config("cimbiosys")).run();
  const auto epidemic = Emulation(tiny_config("epidemic")).run();
  EXPECT_GE(epidemic.metrics.delivered_count(),
            direct.metrics.delivered_count());
  if (direct.metrics.delivered_count() > 0 &&
      epidemic.metrics.delivered_count() > 0) {
    EXPECT_LE(epidemic.metrics.delay_distribution().mean(),
              direct.metrics.delay_distribution().mean());
  }
}

TEST(Emulation, AssignmentCoversAllUsersEveryDay) {
  EmulationConfig config = tiny_config();
  Emulation emulation(config);
  const auto& assignment = emulation.assignment();
  ASSERT_EQ(assignment.size(), config.mobility.days);
  const auto mobility = trace::generate_mobility(config.mobility);
  for (std::size_t day = 0; day < assignment.size(); ++day) {
    ASSERT_EQ(assignment[day].size(), config.email.users);
    const auto& active = mobility.active_buses[day];
    for (const auto bus : assignment[day]) {
      EXPECT_NE(std::find(active.begin(), active.end(), bus),
                active.end())
          << "user assigned to unscheduled bus";
    }
  }
}

TEST(Emulation, EncounterCountsAreSymmetric) {
  Emulation emulation(tiny_config());
  const auto& counts = emulation.encounter_counts();
  for (const auto& [a, row] : counts) {
    for (const auto& [b, n] : row) {
      const auto it = counts.find(b);
      ASSERT_NE(it, counts.end());
      const auto cell = it->second.find(a);
      ASSERT_NE(cell, it->second.end());
      EXPECT_EQ(cell->second, n);
    }
  }
}

TEST(Emulation, StorageConstraintRespected) {
  EmulationConfig config = tiny_config("epidemic");
  config.relay_capacity = 2;
  Emulation emulation(config);
  emulation.run();
  // The invariant oracle ran during the emulation; additionally the
  // final stores must respect the cap.
  // (Store state is internal; the invariant_check_every oracle plus
  // the absence of throws is the primary assertion here.)
  SUCCEED();
}

TEST(Emulation, BandwidthConstraintLimitsTraffic) {
  EmulationConfig unconstrained = tiny_config("epidemic");
  EmulationConfig constrained = tiny_config("epidemic");
  constrained.encounter_budget = 1;
  const auto full = Emulation(unconstrained).run();
  const auto limited = Emulation(constrained).run();
  EXPECT_LE(limited.metrics.traffic().items_sent,
            limited.metrics.encounter_count());
  EXPECT_LT(limited.metrics.traffic().items_sent,
            full.metrics.traffic().items_sent);
  EXPECT_LE(limited.metrics.delivered_count(),
            full.metrics.delivered_count());
}

TEST(Emulation, DeleteAfterDeliveryReducesEndCopies) {
  EmulationConfig keep = tiny_config("epidemic");
  EmulationConfig del = tiny_config("epidemic");
  del.delete_after_delivery = true;
  const auto kept = Emulation(keep).run();
  const auto deleted = Emulation(del).run();
  EXPECT_LT(deleted.metrics.mean_copies_at_end(),
            kept.metrics.mean_copies_at_end());
}

TEST(Emulation, SingleSyncModeStillDelivers) {
  EmulationConfig config = tiny_config("epidemic");
  config.single_sync_per_encounter = true;
  const auto result = Emulation(config).run();
  EXPECT_GT(result.metrics.delivered_count(), 0u);
}

TEST(Emulation, CopiesAtDeliveryForDirectIsTwo) {
  // With the null policy only sender and receiver ever hold a copy at
  // delivery time (Figure 8's observation).
  EmulationConfig config = tiny_config("cimbiosys");
  const auto result = Emulation(config).run();
  for (const auto& [id, record] : result.metrics.records()) {
    if (record.delivered && record.copies_at_delivery > 0) {
      EXPECT_LE(record.copies_at_delivery, 2u);
    }
  }
}

TEST(Emulation, AllPoliciesRunCleanly) {
  for (const char* policy :
       {"cimbiosys", "epidemic", "spray", "prophet", "maxprop"}) {
    EmulationConfig config = tiny_config(policy);
    EXPECT_NO_THROW(Emulation(config).run()) << policy;
  }
}

TEST(Emulation, SelectedStrategyBuildsFilters) {
  EmulationConfig config = tiny_config("cimbiosys");
  config.strategy = dtn::FilterStrategy::Selected;
  config.filter_k = 2;
  const auto with_extras = Emulation(config).run();
  config.strategy = dtn::FilterStrategy::SelfOnly;
  config.filter_k = 0;
  const auto self_only = Emulation(config).run();
  EXPECT_GE(with_extras.metrics.delivered_count(),
            self_only.metrics.delivered_count());
}

TEST(Emulation, LoopbackTransportMatchesInProcess) {
  // Routing every encounter's syncs through the loopback transport —
  // real frames, encoded and decoded — must be observationally
  // equivalent to the in-process path, which makes no codec hop: same
  // traffic, same ledger, and every replica in the same final state,
  // under every registry policy and every constrained configuration.
  std::vector<std::string> policies = dtn::known_policies();
  for (const std::string& name : dtn::baseline_policies())
    policies.push_back(name);
  const std::vector<std::pair<std::string, void (*)(EmulationConfig&)>>
      variants = {
          {"unconstrained", [](EmulationConfig&) {}},
          {"relay capacity, FIFO",
           [](EmulationConfig& c) {
             c.relay_capacity = 3;  // FIFO is the store's default order
           }},
          {"encounter budget",
           [](EmulationConfig& c) { c.encounter_budget = 2; }},
          {"delete after delivery",
           [](EmulationConfig& c) { c.delete_after_delivery = true; }},
          {"single sync per encounter",
           [](EmulationConfig& c) { c.single_sync_per_encounter = true; }},
      };
  for (const std::string& policy : policies) {
    for (const auto& [variant, apply] : variants) {
      SCOPED_TRACE(policy + " / " + variant);
      EmulationConfig in_process = tiny_config(policy);
      apply(in_process);
      EmulationConfig over_wire = in_process;
      over_wire.loopback_transport = true;
      Emulation ea(in_process);
      Emulation eb(over_wire);
      const auto a = ea.run();
      const auto b = eb.run();
      EXPECT_EQ(a.metrics.delivered_count(), b.metrics.delivered_count());
      EXPECT_EQ(a.metrics.traffic().items_sent,
                b.metrics.traffic().items_sent);
      EXPECT_EQ(a.metrics.traffic().request_bytes,
                b.metrics.traffic().request_bytes);
      EXPECT_EQ(a.metrics.traffic().batch_bytes,
                b.metrics.traffic().batch_bytes);
      EXPECT_EQ(a.metrics.traffic().evictions,
                b.metrics.traffic().evictions);
      ASSERT_EQ(a.metrics.records().size(), b.metrics.records().size());
      auto it_b = b.metrics.records().begin();
      for (const auto& [id, record] : a.metrics.records()) {
        EXPECT_EQ(record.delivered, it_b->second.delivered);
        EXPECT_EQ(record.copies_at_delivery,
                  it_b->second.copies_at_delivery);
        EXPECT_EQ(record.copies_at_end, it_b->second.copies_at_end);
        ++it_b;
      }
      ASSERT_EQ(a.fleet_size, b.fleet_size);
      for (std::size_t bus = 0; bus < a.fleet_size; ++bus) {
        const auto index = static_cast<trace::BusIndex>(bus);
        EXPECT_EQ(persist::state_digest(ea.node(index).replica()),
                  persist::state_digest(eb.node(index).replica()))
            << "bus " << bus;
      }
    }
  }
}

TEST(Emulation, LoopbackTransportSurvivesFaultyContacts) {
  // Cut every contact a little way into the exchange; syncs end
  // incomplete but replica invariants (checked every 50 events by
  // tiny_config) must keep holding.
  EmulationConfig config = tiny_config("epidemic");
  config.loopback_transport = true;
  config.loopback_faults.cut_after_bytes = 200;
  EmulationResult result;
  EXPECT_NO_THROW(result = Emulation(config).run());
  // A crippled network delivers no more than a healthy one.
  EmulationConfig healthy = tiny_config("epidemic");
  const auto baseline = Emulation(healthy).run();
  EXPECT_LE(result.metrics.delivered_count(),
            baseline.metrics.delivered_count());
}

}  // namespace
}  // namespace pfrdtn::sim
