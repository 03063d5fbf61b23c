#include "checks.hpp"

#include <algorithm>
#include <tuple>

#include "persist/checkpoint.hpp"

namespace perfbench::checks {

std::map<ItemId, SimTime> flooding_bounds(
    const std::vector<MessageRoute>& messages,
    const pfrdtn::trace::MobilityTrace& mobility) {
  // Events in emulator order: (time, sequence), where every injection
  // was scheduled before every encounter.
  struct Event {
    SimTime time;
    std::size_t seq = 0;
  };
  const std::size_t m = messages.size();
  std::vector<Event> events;
  events.reserve(m + mobility.encounters.size());
  for (std::size_t i = 0; i < m; ++i) events.push_back({messages[i].injected, i});
  for (std::size_t i = 0; i < mobility.encounters.size(); ++i)
    events.push_back({mobility.encounters[i].time, m + i});
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
  });

  const std::size_t words = (m + 63) / 64;
  std::vector<std::vector<std::uint64_t>> held(
      mobility.fleet_size, std::vector<std::uint64_t>(words, 0));
  std::vector<std::vector<std::size_t>> addressed_to(mobility.fleet_size);
  for (std::size_t i = 0; i < m; ++i)
    addressed_to[messages[i].recipient_bus].push_back(i);

  std::map<ItemId, SimTime> bounds;
  const auto has = [&](std::size_t bus, std::size_t i) {
    return (held[bus][i / 64] >> (i % 64)) & 1U;
  };
  const auto note_arrivals = [&](std::size_t bus, SimTime now) {
    for (const std::size_t i : addressed_to[bus]) {
      if (has(bus, i)) bounds.emplace(messages[i].id, now);
    }
  };
  for (const Event& event : events) {
    if (event.seq < m) {
      const MessageRoute& route = messages[event.seq];
      held[route.sender_bus][event.seq / 64] |= std::uint64_t{1}
                                                << (event.seq % 64);
      note_arrivals(route.sender_bus, event.time);
      continue;
    }
    const auto& encounter = mobility.encounters[event.seq - m];
    auto& a = held[encounter.bus_a];
    auto& b = held[encounter.bus_b];
    for (std::size_t w = 0; w < words; ++w) a[w] = b[w] = a[w] | b[w];
    note_arrivals(encounter.bus_a, event.time);
    note_arrivals(encounter.bus_b, event.time);
  }
  return bounds;
}

std::vector<std::string> check_deliveries(
    const std::vector<MessageRoute>& messages,
    const std::map<ItemId, SimTime>& bounds,
    const std::map<ItemId, std::optional<SimTime>>& delivered, bool exact) {
  std::vector<std::string> failures;
  if (delivered.size() != messages.size()) {
    failures.push_back("ledger holds " + std::to_string(delivered.size()) +
                       " messages, " + std::to_string(messages.size()) +
                       " were injected");
  }
  for (const MessageRoute& route : messages) {
    const auto it = delivered.find(route.id);
    if (it == delivered.end() || !it->second) {
      failures.push_back(route.id.str() + " never delivered");
      continue;
    }
    const auto bound = bounds.find(route.id);
    if (bound == bounds.end()) {
      failures.push_back(route.id.str() +
                         " delivered though no contact path reaches its "
                         "recipient");
      continue;
    }
    const SimTime at = *it->second;
    if (at < bound->second) {
      failures.push_back(route.id.str() + " delivered at " + at.str() +
                         ", before its flooding bound " +
                         bound->second.str());
    } else if (exact && at != bound->second) {
      failures.push_back(route.id.str() + " delivered at " + at.str() +
                         ", after its flooding bound " +
                         bound->second.str());
    }
  }
  return failures;
}

std::vector<std::string> check_same_ledger(
    const std::map<ItemId, std::optional<SimTime>>& expected,
    const std::map<ItemId, std::optional<SimTime>>& actual,
    const std::string& what) {
  if (expected == actual) return {};
  std::size_t differing = 0;
  for (const auto& [id, at] : expected) {
    const auto it = actual.find(id);
    if (it == actual.end() || it->second != at) ++differing;
  }
  return {what + ": delivery ledger differs from the emulator's (" +
          std::to_string(differing) + " of " +
          std::to_string(expected.size()) + " messages; " +
          std::to_string(actual.size()) + " recorded)"};
}

std::vector<std::string> check_mailbox(const std::vector<ItemId>& sent,
                                       const std::vector<ItemId>& received,
                                       const std::string& who) {
  std::map<ItemId, int> count;
  for (const ItemId id : received) ++count[id];
  std::size_t missing = 0;
  std::size_t duplicated = 0;
  for (const ItemId id : sent) {
    const auto it = count.find(id);
    if (it == count.end()) {
      ++missing;
      continue;
    }
    if (it->second > 1) ++duplicated;
    count.erase(it);
  }
  const std::size_t unexpected = count.size();
  if (missing + duplicated + unexpected == 0) return {};
  return {who + ": of " + std::to_string(sent.size()) + " pushed, " +
          std::to_string(missing) + " never delivered, " +
          std::to_string(duplicated) + " delivered more than once, " +
          std::to_string(unexpected) + " unexpected ids delivered"};
}

std::vector<std::string> check_recovered(const pfrdtn::repl::Replica& recovered,
                                         std::uint64_t live_digest,
                                         const std::vector<ItemId>& acked) {
  std::vector<std::string> failures;
  std::size_t lost = 0;
  for (const ItemId id : acked) {
    const auto* entry = recovered.store().find(id);
    if (entry == nullptr || entry->item.deleted()) ++lost;
  }
  if (lost != 0) {
    failures.push_back("recovered store lacks " + std::to_string(lost) +
                       " of " + std::to_string(acked.size()) +
                       " acknowledged pushes");
  }
  if (pfrdtn::persist::state_digest(recovered) != live_digest)
    failures.push_back("recovered state digest differs from the live hub's");
  return failures;
}

std::vector<std::string> check_invariants(
    const std::vector<const pfrdtn::repl::Replica*>& replicas) {
  std::vector<std::string> failures;
  for (const auto* replica : replicas) {
    const std::string violation = replica->check_invariants();
    if (violation.empty()) continue;
    std::string failure = replica->id().str();
    failure += ": ";
    failure += violation;
    failures.push_back(std::move(failure));
  }
  return failures;
}

}  // namespace perfbench::checks
