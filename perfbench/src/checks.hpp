#pragma once

/// \file checks.hpp
/// Output checks computed apart from the program under test. Each
/// returns the list of what it found wrong; empty means the output
/// passed. The self-test feeds each one a deliberately wrong result.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "repl/replica.hpp"
#include "trace/encounter.hpp"

namespace perfbench::checks {

using pfrdtn::ItemId;
using pfrdtn::SimTime;

/// Where and when one message entered the network, and which bus it is
/// addressed to.
struct MessageRoute {
  ItemId id;
  SimTime injected;
  pfrdtn::trace::BusIndex sender_bus = 0;
  pfrdtn::trace::BusIndex recipient_bus = 0;
};

/// Earliest possible arrival of every message at its recipient's bus:
/// one time-ordered flooding pass over the encounter list, in which any
/// contact between two buses hands each every message the other holds.
/// Injections precede encounters at equal times, and encounters at one
/// time run in list order, as in the emulator's event queue. Messages
/// that can never arrive are absent from the result.
std::map<ItemId, SimTime> flooding_bounds(
    const std::vector<MessageRoute>& messages,
    const pfrdtn::trace::MobilityTrace& mobility);

/// Every message must be delivered, none before its flooding bound;
/// with `exact`, each exactly at it (what epidemic routing achieves).
std::vector<std::string> check_deliveries(
    const std::vector<MessageRoute>& messages,
    const std::map<ItemId, SimTime>& bounds,
    const std::map<ItemId, std::optional<SimTime>>& delivered, bool exact);

/// Two runs over the same trace must deliver the same messages at the
/// same times.
std::vector<std::string> check_same_ledger(
    const std::map<ItemId, std::optional<SimTime>>& expected,
    const std::map<ItemId, std::optional<SimTime>>& actual,
    const std::string& what);

/// Every id in `sent` must appear in `received` exactly once, and
/// nothing else may.
std::vector<std::string> check_mailbox(const std::vector<ItemId>& sent,
                                       const std::vector<ItemId>& received,
                                       const std::string& who);

/// The replica recovered from a state directory must hold every
/// acknowledged push and digest equal to the live replica it was
/// written by.
std::vector<std::string> check_recovered(const pfrdtn::repl::Replica& recovered,
                                         std::uint64_t live_digest,
                                         const std::vector<ItemId>& acked);

/// Replica::check_invariants on every replica.
std::vector<std::string> check_invariants(
    const std::vector<const pfrdtn::repl::Replica*>& replicas);

}  // namespace perfbench::checks
