#pragma once

/// \file policy.hpp
/// DTN-layer policy base class. Extends the substrate's
/// ForwardingPolicy with the application-level hooks the four routing
/// protocols need: awareness of the addresses this node currently
/// hosts (the evaluation reassigns users to buses daily), an
/// encounter-completion signal, delivery notifications for
/// acknowledgement flooding, and a binding to the local replica for
/// policies that manage buffer contents (MaxProp acks).

#include <memory>
#include <set>

#include "repl/forwarding_policy.hpp"
#include "repl/replica.hpp"

namespace pfrdtn::dtn {

class DtnPolicy : public repl::ForwardingPolicy {
 public:
  /// Called by the messaging application when the set of addresses
  /// hosted by this node changes.
  virtual void set_hosted(const std::set<HostId>& hosted,
                          SimTime /*now*/) {
    hosted_ = hosted;
  }

  /// Called once after both syncs of an encounter have completed.
  virtual void encounter_complete(ReplicaId /*peer*/, SimTime /*now*/) {}

  /// Called when a message is delivered at this node (for policies
  /// that propagate acknowledgements).
  virtual void note_delivered(ItemId /*id*/, SimTime /*now*/) {}

  /// A DTN policy is known by its registry name, which decorators
  /// around a registry policy report too, so the registry answers:
  /// false exactly for the names of the null policy (the unmodified
  /// substrate). Defined in registry.cpp.
  [[nodiscard]] bool forwards_out_of_filter() const override;

  /// Bind the policy to the replica it serves (required by policies
  /// that clear buffers; others ignore it).
  void bind(repl::Replica* replica) { replica_ = replica; }

 protected:
  [[nodiscard]] const std::set<HostId>& hosted() const { return hosted_; }
  [[nodiscard]] repl::Replica* replica() const { return replica_; }

 private:
  std::set<HostId> hosted_;
  repl::Replica* replica_ = nullptr;
};

using PolicyPtr = std::shared_ptr<DtnPolicy>;

}  // namespace pfrdtn::dtn
