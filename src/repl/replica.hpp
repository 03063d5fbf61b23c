#pragma once

/// \file replica.hpp
/// A replica of the shared collection: item store + knowledge + filter,
/// with the local-update and remote-apply operations that preserve the
/// substrate's guarantees (eventual filter consistency, at-most-once
/// delivery). All mutation paths that touch both the store and the
/// knowledge go through this class so the two cannot diverge.

#include <map>
#include <string>
#include <vector>

#include "repl/filter.hpp"
#include "repl/item.hpp"
#include "repl/knowledge.hpp"
#include "repl/store.hpp"

namespace pfrdtn::repl {

/// Outcome of applying one remote item copy.
enum class ApplyOutcome {
  StoredNew,        ///< previously unseen item stored
  UpdatedExisting,  ///< dominated version replaced
  Stale,            ///< we already store this or a dominating version
};

/// Observer of the replica's mutation funnel, notified *after* each
/// mutation completes. src/persist/ implements this to write-ahead-log
/// every state change; the hooks carry exactly the inputs needed to
/// replay the mutation deterministically (evictions, refilters and
/// knowledge folds re-derive identically on replay, so they are not
/// logged separately). Hook implementations must not mutate the
/// replica.
class ReplicaMutationSink {
 public:
  virtual ~ReplicaMutationSink() = default;

  /// A local create/update/erase produced `stored` (already in the
  /// store; includes the tombstone case).
  virtual void on_local_put(const Item& stored) = 0;
  /// apply_remote() ran on `incoming` (transient fields included).
  /// Called for every outcome — a Stale copy still folds knowledge.
  virtual void on_apply_remote(const Item& incoming) = 0;
  virtual void on_set_filter(const Filter& filter) = 0;
  /// discard_relay() removed a copy (only called when it returned true).
  virtual void on_discard_relay(ItemId id) = 0;
  virtual void on_learn(const Knowledge& source_knowledge) = 0;
  /// A forwarding policy changed a stored copy's transient state
  /// during batch building; `all` is the copy's full transient map.
  virtual void on_policy_state(
      ItemId id, const std::map<std::string, std::string>& all) = 0;
};

class Replica {
 public:
  Replica(ReplicaId id, Filter filter, ItemStore::Config store_config = {})
      : id_(id), filter_(std::move(filter)), store_(store_config) {}

  [[nodiscard]] ReplicaId id() const { return id_; }
  [[nodiscard]] const Filter& filter() const { return filter_; }
  [[nodiscard]] const Knowledge& knowledge() const { return knowledge_; }
  [[nodiscard]] Knowledge& knowledge_mutable() { return knowledge_; }
  [[nodiscard]] const ItemStore& store() const { return store_; }
  [[nodiscard]] ItemStore& store_mutable() { return store_; }

  // ---- local operations (always available; disconnected operation) ----

  /// Create a new item authored here. The item is stored regardless of
  /// whether it matches the local filter (out-of-filter creations go to
  /// the relay/push-out store and are exempt from eviction).
  const Item& create(std::map<std::string, std::string> metadata,
                     std::vector<std::uint8_t> body);

  /// Replace an existing item's replicated content with a new version.
  const Item& update(ItemId id,
                     std::map<std::string, std::string> metadata,
                     std::vector<std::uint8_t> body);

  /// Delete an item: stores a tombstone that propagates like any other
  /// update, clearing copies at other replicas.
  const Item& erase(ItemId id);

  /// Change this replica's filter. Items that newly match are returned
  /// (they were already stored as relay items and are now locally
  /// "delivered"); items that no longer match become evictable relay
  /// items.
  std::vector<Item> set_filter(Filter filter);

  // ---- remote application (called by the sync engine) ----

  /// Apply one item copy received from a sync partner. Updates the
  /// store and knowledge consistently; any evicted relay items are
  /// appended to `evicted` (their knowledge entries are forgotten so
  /// the copies can be re-received).
  ApplyOutcome apply_remote(const Item& incoming,
                            std::vector<Item>& evicted);

  /// Discard a relay copy (out-of-filter, not locally authored) and
  /// forget its knowledge entries, exactly as an eviction would — used
  /// by acknowledgement-flooding policies to clear buffers of delivered
  /// messages. Returns whether a copy was discarded.
  bool discard_relay(ItemId id);

  /// Record knowledge learned from a sync partner after a *complete*
  /// sync, scoped to this replica's filter.
  void learn(const Knowledge& source_knowledge) {
    require_writable("learn");
    // Write-ahead: log before merging so a refused learn leaves the
    // knowledge untouched (see Replica::create for the rationale).
    if (sink_ != nullptr) sink_->on_learn(source_knowledge);
    knowledge_.merge_scoped(source_knowledge, filter_);
  }

  // ---- degraded (read-only) mode ----

  /// Mark the replica read-only. Set by the durability layer after a
  /// storage fault: the in-memory state is still good (pull syncs and
  /// reads keep working) but no further mutation can be made durable,
  /// so every mutation entry point refuses *before* touching memory —
  /// a degraded replica never acknowledges what it cannot persist.
  void set_read_only(bool read_only) { read_only_ = read_only; }
  [[nodiscard]] bool read_only() const { return read_only_; }

  // ---- durability hooks (src/persist/) ----

  /// Attach (or detach, with nullptr) a mutation observer. The sink
  /// sees mutations from this point on; attach only after recovery so
  /// replayed mutations are not re-logged.
  void set_mutation_sink(ReplicaMutationSink* sink) { sink_ = sink; }
  [[nodiscard]] ReplicaMutationSink* mutation_sink() const {
    return sink_;
  }

  /// Log a stored copy's transient state after a policy mutated it on
  /// the batch-building path (the one store mutation that bypasses the
  /// funnel above). No-op when the item is not stored or no sink is
  /// attached.
  void note_policy_state(ItemId id);

  [[nodiscard]] std::uint64_t next_counter() const {
    return next_counter_;
  }
  [[nodiscard]] std::uint64_t next_item_seq() const {
    return next_item_seq_;
  }
  /// Restore the authoring counters from a checkpoint. Monotonic:
  /// counters never move backwards (a reused (author, counter) pair
  /// would corrupt knowledge system-wide).
  void restore_counters(std::uint64_t next_counter,
                        std::uint64_t next_item_seq);
  /// Overwrite knowledge from a checkpoint's exact codec.
  void restore_knowledge(Knowledge knowledge) {
    knowledge_ = std::move(knowledge);
  }

  /// WAL replay of on_local_put: re-insert the logged item exactly as
  /// create/update/erase stored it (local origin, knowledge event,
  /// counters advanced past the logged version).
  void replay_local_put(Item item);
  /// WAL replay of on_policy_state.
  void replay_policy_state(ItemId id,
                           std::map<std::string, std::string> all);

  /// Check the store/knowledge soundness invariant for every stored
  /// item and, via `latest` (a map from item id to the globally newest
  /// version, supplied by the test oracle), for completeness claims,
  /// then that every store index equals a rebuild from the entries.
  /// Returns a human-readable violation description, or empty string.
  [[nodiscard]] std::string check_invariants() const;

 private:
  /// Throws ReadOnlyError when the replica is degraded. Guards every
  /// mutation entry point; note_policy_state stays unguarded (policy
  /// transients are soft state rewritten on the pull-serving path,
  /// which must keep working while degraded).
  void require_writable(const char* op) const;

  ApplyOutcome apply_remote_impl(const Item& incoming,
                                 std::vector<Item>& evicted);

  /// Fix knowledge after relay evictions so copies can be re-received.
  void forget_evicted(const std::vector<Item>& evicted);

  /// Re-derive knowledge from the authored counter and the current
  /// store contents; called on filter changes (see set_filter).
  void rebuild_knowledge();

  ReplicaId id_;
  Filter filter_;
  Knowledge knowledge_;
  ItemStore store_;
  std::uint64_t next_counter_ = 0;
  std::uint64_t next_item_seq_ = 0;
  ReplicaMutationSink* sink_ = nullptr;
  bool read_only_ = false;
};

}  // namespace pfrdtn::repl
