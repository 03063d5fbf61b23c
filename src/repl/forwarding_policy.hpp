#pragma once

/// \file forwarding_policy.hpp
/// The substrate-side extension point for DTN routing (the paper's
/// Section V / Figure 3): a pluggable policy that (1) adds routing
/// state to a synchronization request, (2) processes the partner's
/// routing state, and (3) decides which *out-of-filter* items the
/// source should forward, with what priority. The filter-matching part
/// of the batch is untouched — eventual filter consistency is preserved
/// by construction.

#include <cstdint>
#include <string>
#include <vector>

#include "repl/item.hpp"
#include "util/ids.hpp"
#include "util/sim_time.hpp"

namespace pfrdtn::repl {

/// Coarse priority class plus a real-valued cost to break ties within a
/// class (lower cost sorts earlier), mirroring the paper's definition:
/// "a 'class' value, ranging from 'lowest' to 'highest', and a
/// real-valued 'cost' to break ties inside a class".
enum class PriorityClass : std::uint8_t {
  Skip = 0,  ///< do not forward
  Lowest,
  Low,
  Normal,
  High,
  Highest,  ///< reserved by the sync engine for filter-matching items
};

struct Priority {
  PriorityClass cls = PriorityClass::Skip;
  double cost = 0.0;

  [[nodiscard]] bool send() const { return cls != PriorityClass::Skip; }

  static Priority skip() { return {}; }
  static Priority at(PriorityClass cls, double cost = 0.0) {
    return {cls, cost};
  }

  /// Strict-weak order: higher class first, then lower cost.
  [[nodiscard]] bool before(const Priority& other) const {
    if (cls != other.cls) return cls > other.cls;
    return cost < other.cost;
  }
};

/// Per-sync context handed to policy callbacks.
struct SyncContext {
  ReplicaId self;  ///< the replica this policy instance belongs to
  ReplicaId peer;  ///< the sync partner
  SimTime now;     ///< simulated wall clock
};

// TransientView — the restricted mutable view policies receive — lives
// in item.hpp so the item store can hand it out too.

/// Pluggable forwarding policy (the paper's IDTNPolicy). One instance
/// exists per replica; instances may keep persistent routing state
/// across syncs (delivery predictabilities, meeting probabilities, …).
class ForwardingPolicy {
 public:
  virtual ~ForwardingPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Human-readable description of routing state / request payload /
  /// forwarding rule — the policy's row of the paper's Table I.
  [[nodiscard]] virtual std::string summary() const { return ""; }

  /// Target side: produce routing state to embed in the sync request
  /// ("generateReq" in the paper).
  virtual std::vector<std::uint8_t> generate_request(
      const SyncContext& /*ctx*/) {
    return {};
  }

  /// Source side: consume the routing state from a received request
  /// ("processReq").
  virtual void process_request(
      const SyncContext& /*ctx*/,
      const std::vector<std::uint8_t>& /*routing_state*/) {}

  /// False for a policy that never forwards anything out of filter:
  /// its to_send skips every item and touches no copy. The sync engine
  /// then builds the batch from the store's filter index alone and
  /// never calls to_send — the batch is the one a scan would build.
  [[nodiscard]] virtual bool forwards_out_of_filter() const { return true; }

  /// Source side: should this out-of-filter stored item be forwarded
  /// to the peer, and at what priority? ("toSend"). May initialize
  /// missing transient fields on the stored copy (e.g. a default TTL).
  virtual Priority to_send(const SyncContext& /*ctx*/,
                           TransientView /*stored*/) {
    return Priority::skip();
  }

  /// Source side: called once per item that actually made it into the
  /// batch (after priority ordering and bandwidth truncation), with the
  /// stored copy and the outgoing copy. This is where per-copy state is
  /// adjusted — TTL decrement, copy-count halving — so that items cut
  /// by a bandwidth cap are not charged.
  ///
  /// A policy may discard the stored relay copy (e.g. single-copy
  /// custody transfer) as its *final* action here; the sync engine
  /// makes no further use of the stored entry after this call.
  virtual void on_forward(const SyncContext& /*ctx*/,
                          TransientView /*stored*/,
                          TransientView /*outgoing*/) {}
};

}  // namespace pfrdtn::repl
