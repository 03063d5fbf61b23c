#include "repl/sync.hpp"

#include <algorithm>

namespace pfrdtn::repl {

void SyncRequest::serialize(ByteWriter& w) const {
  w.uvarint(target.value());
  filter.serialize(w);
  knowledge.serialize(w);
  w.raw(routing_state);
}

SyncRequest SyncRequest::deserialize(ByteReader& r) {
  SyncRequest req;
  req.target = ReplicaId(r.uvarint());
  req.filter = Filter::deserialize(r);
  req.knowledge = Knowledge::deserialize(r);
  req.routing_state = r.raw();
  return req;
}

void SummaryRequestInfo::serialize(ByteWriter& w) const {
  w.uvarint(target.value());
  filter.serialize(w);
  summary.serialize(w);
  w.raw(routing_state);
}

SummaryRequestInfo SummaryRequestInfo::deserialize(ByteReader& r) {
  SummaryRequestInfo req;
  req.target = ReplicaId(r.uvarint());
  req.filter = Filter::deserialize(r);
  req.summary = KnowledgeSummary::deserialize(r);
  req.routing_state = r.raw();
  return req;
}

void SyncBatch::serialize(ByteWriter& w) const {
  w.uvarint(source.value());
  w.u8(complete ? 1 : 0);
  w.uvarint(items.size());
  for (const Item& item : items) item.serialize(w);
  source_knowledge.serialize(w);
}

SyncBatch SyncBatch::deserialize(ByteReader& r) {
  SyncBatch batch;
  batch.source = ReplicaId(r.uvarint());
  batch.complete = r.u8() != 0;
  const std::uint64_t n = r.uvarint();
  // Never trust a wire count for allocation: each item occupies at
  // least one byte, so remaining() bounds the plausible count.
  batch.items.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n, r.remaining())));
  for (std::uint64_t i = 0; i < n; ++i)
    batch.items.push_back(Item::deserialize(r));
  batch.source_knowledge = Knowledge::deserialize(r);
  return batch;
}

void SyncStats::accumulate(const SyncStats& other) {
  items_sent += other.items_sent;
  items_new += other.items_new;
  items_stale += other.items_stale;
  evictions += other.evictions;
  request_bytes += other.request_bytes;
  batch_bytes += other.batch_bytes;
  complete = complete && other.complete;
}

namespace {

struct Candidate {
  ItemId id{};
  Priority priority;
  bool matches_filter = false;
  std::uint64_t arrival_seq = 0;  ///< deterministic tie-break
};

/// The source's choice of what to send, before any copy is taken.
struct BatchPlan {
  std::vector<Candidate> candidates;  ///< priority order, capped
  /// Every filter-matching unknown item made the cut.
  bool complete = true;
};

std::vector<std::uint8_t> routing_state_of(Replica& target,
                                           ForwardingPolicy* target_policy,
                                           ReplicaId source_id,
                                           SimTime now) {
  const SyncContext target_ctx{target.id(), source_id, now};
  return target_policy ? target_policy->generate_request(target_ctx)
                       : std::vector<std::uint8_t>{};
}

/// Source step, after the routing state was processed: order the
/// stored items a peer with `filter` and `knowledge` lacks by priority
/// and apply the bandwidth cap.
BatchPlan plan_batch(Replica& source, ForwardingPolicy* source_policy,
                     const SyncContext& source_ctx, const Filter& filter,
                     const Knowledge& knowledge,
                     const SyncOptions& options) {
  BatchPlan plan;
  auto& candidates = plan.candidates;
  ItemStore& store = source.store_mutable();
  if (source_policy == nullptr || !source_policy->forwards_out_of_filter()) {
    // Without a policy that forwards out of filter only filter-matching
    // items can enter the batch, so enumerate exactly those through the
    // store's filter index (O(matching) for address filters) instead of
    // scanning every entry. Visit order does not matter: the sort below
    // is a total order (arrival_seq is unique), so indexed and scan
    // enumeration yield byte-identical batches.
    store.for_filter_matches(filter, [&](const ItemStore::Entry& entry) {
      if (!knowledge.knows(entry.item, entry.item.version())) {
        candidates.push_back({entry.item.id(),
                              Priority::at(PriorityClass::Highest),
                              /*matches_filter=*/true, entry.arrival_seq});
      }
      return true;
    });
  } else {
    // Only an entry whose event lies above the peer's version-vector
    // prefix can be unknown to it. The version index visits exactly
    // those, in arrival order, so the policy sees the same to_send
    // calls, on the same copies, in the same order as a whole-store
    // scan would make.
    store.for_each_transient_above(
        knowledge.universal().vector_part(),
        [&](const ItemStore::Entry& entry, TransientView stored) {
          if (knowledge.knows(entry.item, entry.item.version())) return;
          if (filter.matches(entry.item)) {
            candidates.push_back({entry.item.id(),
                                  Priority::at(PriorityClass::Highest),
                                  /*matches_filter=*/true,
                                  entry.arrival_seq});
            return;
          }
          const Priority priority =
              source_policy->to_send(source_ctx, stored);
          if (priority.send()) {
            PFRDTN_REQUIRE(priority.cls != PriorityClass::Highest);
            candidates.push_back({entry.item.id(), priority,
                                  /*matches_filter=*/false,
                                  entry.arrival_seq});
          }
        });
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.priority.cls != b.priority.cls ||
                  a.priority.cost != b.priority.cost) {
                return a.priority.before(b.priority);
              }
              return a.arrival_seq < b.arrival_seq;
            });

  if (options.max_items && candidates.size() > *options.max_items) {
    for (std::size_t i = *options.max_items; i < candidates.size(); ++i) {
      if (candidates[i].matches_filter) plan.complete = false;
    }
    candidates.resize(*options.max_items);
  }
  return plan;
}

/// Take the outgoing copies of a plan's items, charging per-copy
/// forwarding state (on_forward) for the policy-chosen ones.
std::vector<Item> take_items(Replica& source, ForwardingPolicy* source_policy,
                             const SyncContext& source_ctx,
                             const BatchPlan& plan) {
  ItemStore& store = source.store_mutable();
  std::vector<Item> items;
  items.reserve(plan.candidates.size());
  for (const Candidate& candidate : plan.candidates) {
    const auto* entry = store.find(candidate.id);
    PFRDTN_ENSURE(entry != nullptr);
    // A payload refcount bump plus the per-copy transient fields — no
    // metadata/body copy on the hot path.
    Item outgoing = entry->item;
    if (source_policy && !candidate.matches_filter) {
      auto stored = store.transient_mutable(candidate.id);
      PFRDTN_ENSURE(stored.has_value());
      source_policy->on_forward(source_ctx, *stored,
                                TransientView(outgoing));
      // on_forward charges per-copy routing state (TTL, copy budgets)
      // on the stored copy — a store mutation outside the replica
      // funnel, so the durability sink is told explicitly.
      source.note_policy_state(candidate.id);
    }
    items.push_back(std::move(outgoing));
  }
  return items;
}

}  // namespace

SyncRequest make_request(Replica& target, ForwardingPolicy* target_policy,
                         ReplicaId source_id, SimTime now) {
  return SyncRequest{target.id(), target.filter(), target.knowledge(),
                     routing_state_of(target, target_policy, source_id, now)};
}

SyncBatch build_batch(Replica& source, ForwardingPolicy* source_policy,
                      const SyncRequest& request, SimTime now,
                      const SyncOptions& options,
                      bool process_routing_state) {
  const SyncContext source_ctx{source.id(), request.target, now};
  if (source_policy && process_routing_state)
    source_policy->process_request(source_ctx, request.routing_state);
  const BatchPlan plan = plan_batch(source, source_policy, source_ctx,
                                    request.filter, request.knowledge,
                                    options);
  SyncBatch batch;
  batch.source = source.id();
  batch.complete = plan.complete;
  // The knowledge as it stands before on_forward, which may discard a
  // forwarded relay copy (custody transfer).
  batch.source_knowledge = source.knowledge();
  batch.items = take_items(source, source_policy, source_ctx, plan);
  return batch;
}

void BatchApplier::apply(const Item& item) {
  ++result_.stats.items_sent;
  result_.received_events.push_back(item.version());
  const ApplyOutcome outcome =
      target_->apply_remote(item, result_.evicted);
  switch (outcome) {
    case ApplyOutcome::StoredNew:
    case ApplyOutcome::UpdatedExisting:
      ++result_.stats.items_new;
      if (target_->filter().matches(item))
        result_.delivered.push_back(item);
      break;
    case ApplyOutcome::Stale:
      ++result_.stats.items_stale;
      break;
  }
}

SyncResult BatchApplier::finish(bool complete,
                                const Knowledge& source_knowledge) {
  result_.stats.complete = complete;
  result_.stats.evictions = result_.evicted.size();
  // unsafe_learn_truncated deliberately re-opens the truncation hole so
  // the check harness can demonstrate it detects the corruption.
  if ((complete || options_.unsafe_learn_truncated) &&
      options_.learn_knowledge) {
    target_->learn(source_knowledge);
  }
  return std::move(result_);
}

SyncResult BatchApplier::abandon() {
  result_.stats.complete = false;
  result_.stats.evictions = result_.evicted.size();
  return std::move(result_);
}

SyncResult apply_batch(Replica& target, const SyncBatch& batch,
                       const SyncOptions& options) {
  BatchApplier applier(target, options);
  for (const Item& item : batch.items) applier.apply(item);
  return applier.finish(batch.complete, batch.source_knowledge);
}

SummaryRequestInfo make_summary_request(Replica& target,
                                        ForwardingPolicy* target_policy,
                                        ReplicaId source_id, SimTime now,
                                        const SummaryParams& params) {
  SummaryRequestInfo req;
  req.target = target.id();
  req.filter = target.filter();
  req.summary = summarize(target.knowledge(), params);
  req.routing_state = routing_state_of(target, target_policy, source_id, now);
  return req;
}

namespace {

/// answer_summary's decision, leaving a Batch answer's batch unbuilt.
/// Processes the request's routing state, whatever the answer.
SummaryAnswer::Kind decide_summary(Replica& source,
                                   ForwardingPolicy* source_policy,
                                   const SummaryRequestInfo& request,
                                   SimTime now, const SyncOptions& options) {
  // Policy parity with the exact path: the routing state is processed
  // exactly once per sync, here, whatever the answer turns out to be.
  const SyncContext source_ctx{source.id(), request.target, now};
  if (source_policy)
    source_policy->process_request(source_ctx, request.routing_state);

  // summary_force_collision simulates the 2^-64 digest collision: a
  // spurious Match that defers items to a future exact sync.
  if (options.summary_force_collision ||
      request.summary.digest == source.knowledge().wire_digest()) {
    return SummaryAnswer::Kind::Match;
  }
  // TESTING ONLY — the skip-fallback mutant answers the mismatch with
  // an empty "complete" batch (see answer_summary).
  if (options.unsafe_summary_skip_fallback) return SummaryAnswer::Kind::Batch;

  if (request.summary.bloom.has_value()) {
    const BloomFilter& bloom = *request.summary.bloom;
    bool any_hit = false;
    source.store().for_each([&](const ItemStore::Entry& entry) {
      const Version& v = entry.item.version();
      if (bloom.maybe_contains(v.author, v.counter)) any_hit = true;
    });
    // Bloom misses are definitive: the target knows no stored item's
    // event, so the batch built against *empty* knowledge is exactly
    // the batch the exact path would have built — same candidates,
    // honest complete flag, real source knowledge.
    if (!any_hit) return SummaryAnswer::Kind::Batch;
  }
  return SummaryAnswer::Kind::Miss;
}

}  // namespace

SummaryAnswer answer_summary(Replica& source,
                             ForwardingPolicy* source_policy,
                             const SummaryRequestInfo& request, SimTime now,
                             const SyncOptions& options) {
  SummaryAnswer answer;
  answer.kind = decide_summary(source, source_policy, request, now, options);
  if (answer.kind != SummaryAnswer::Kind::Batch) return answer;
  if (options.unsafe_summary_skip_fallback) {
    // TESTING ONLY — the skip-fallback mutant: real knowledge with no
    // items, so the target learns events for items it never received.
    // The check harness's knowledge-soundness oracle must flag exactly
    // this.
    answer.batch.source = source.id();
    answer.batch.complete = true;
    answer.batch.source_knowledge = source.knowledge();
    return answer;
  }
  // Routing state was already processed by decide_summary.
  SyncRequest exact;
  exact.target = request.target;
  exact.filter = request.filter;
  exact.routing_state = request.routing_state;
  answer.batch = build_batch(source, source_policy, exact, now, options,
                             /*process_routing_state=*/false);
  return answer;
}

SyncResult apply_summary_match(Replica& target,
                               const SyncOptions& options) {
  // Equal digests mean the source's wire knowledge is byte-identical
  // to our own, so the complete-sync finish the exact path would run
  // is reproducible locally: learn decode(encode(own knowledge)) — the
  // cached wire form, held by pointer while learning mutates the
  // knowledge it came from.
  const std::shared_ptr<const Knowledge> source_knowledge =
      target.knowledge().wire_form();
  BatchApplier applier(target, options);
  return applier.finish(/*complete=*/true, *source_knowledge);
}

namespace {

void write_batch_begin(ByteWriter& w, ReplicaId source, bool complete,
                       std::uint64_t count) {
  w.uvarint(source.value());
  w.u8(complete ? 1 : 0);
  w.uvarint(count);
}

}  // namespace

std::vector<std::uint8_t> encode_batch_begin(const SyncBatch& batch) {
  ByteWriter w;
  write_batch_begin(w, batch.source, batch.complete, batch.items.size());
  return w.take();
}

BatchBeginInfo decode_batch_begin(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  BatchBeginInfo info;
  info.source = ReplicaId(r.uvarint());
  info.complete = r.u8() != 0;
  info.count = r.uvarint();
  PFRDTN_REQUIRE(r.done());
  return info;
}

std::vector<std::uint8_t> encode_summary_reply(ReplicaId source) {
  ByteWriter w;
  w.uvarint(source.value());
  return w.take();
}

ReplicaId decode_summary_reply(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const ReplicaId source(r.uvarint());
  PFRDTN_REQUIRE(r.done());
  return source;
}

std::vector<std::uint8_t> encode_batch_ack(std::uint64_t items_applied) {
  ByteWriter w;
  w.uvarint(items_applied);
  return w.take();
}

std::uint64_t decode_batch_ack(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint64_t items_applied = r.uvarint();
  PFRDTN_REQUIRE(r.done());
  return items_applied;
}

std::vector<std::uint8_t> encode_error_frame(std::uint8_t code,
                                             const std::string& message) {
  // One code byte, then the message as the rest of the payload — no
  // length prefix, so the frame length bounds the message exactly.
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + message.size());
  payload.push_back(code);
  payload.insert(payload.end(), message.begin(), message.end());
  return payload;
}

SyncErrorInfo decode_error_frame(
    const std::vector<std::uint8_t>& payload) {
  PFRDTN_REQUIRE(!payload.empty());
  SyncErrorInfo info;
  info.code = payload[0];
  info.message.assign(payload.begin() + 1, payload.end());
  return info;
}

std::string sync_error_code_name(std::uint8_t code) {
  switch (code) {
    case kSyncErrorReadOnly:
      return "read-only";
    case kSyncErrorBusy:
      return "busy";
    case kSyncErrorDraining:
      return "draining";
    default:
      return "error-" + std::to_string(code);
  }
}

namespace {

/// Framed bytes of a Request frame carrying these fields — what
/// SyncRequest::serialize writes, with the knowledge's cached size in
/// place of re-encoding it.
std::size_t request_wire_size(ReplicaId target, const Filter& filter,
                              const Knowledge& knowledge,
                              const std::vector<std::uint8_t>& routing_state) {
  ByteWriter w;
  w.uvarint(target.value());
  filter.serialize(w);
  w.raw(routing_state);
  return framed_size(w.size() + knowledge.size_bytes());
}

/// Framed bytes of a streamed batch: BatchBegin, one BatchItem per
/// item, and BatchEnd carrying `knowledge_bytes` of source knowledge.
std::size_t batch_wire_size(ReplicaId source, bool complete,
                            const std::vector<Item>& items,
                            std::size_t knowledge_bytes) {
  ByteWriter begin;
  write_batch_begin(begin, source, complete, items.size());
  std::size_t total = framed_size(begin.size());
  // Item::wire_size() is the replicated size cached on the shared
  // payload plus the copy's transient fields — byte-for-byte what
  // serialize() would write, without re-serializing metadata and body.
  for (const Item& item : items) total += framed_size(item.wire_size());
  return total + framed_size(knowledge_bytes);
}

}  // namespace

std::size_t wire_size(const SyncRequest& request) {
  return request_wire_size(request.target, request.filter, request.knowledge,
                           request.routing_state);
}

std::size_t wire_size(const SummaryRequestInfo& request) {
  ByteWriter w;
  request.serialize(w);
  return framed_size(w.size());
}

std::size_t wire_size(const SyncBatch& batch) {
  return batch_wire_size(batch.source, batch.complete, batch.items,
                         batch.source_knowledge.size_bytes());
}

namespace {

// ---- the in-process path ----------------------------------------------
//
// run_sync plays both sides in one address space, so nothing crosses a
// transport: the source reads the target's filter and routing state
// directly and its knowledge in the cached wire form (the value the
// source would decode), items pass as refcounted copies (shared
// payload, copied transient map — equal to a decoded copy), and the
// target learns the source's knowledge in its wire form. Byte counts
// are those of the frames a transport would carry, from cached sizes.

/// Finish an in-process sync once the source has processed the routing
/// state and planned its batch: take the outgoing copies, apply them at
/// the target, and learn the source's knowledge as sent. Reports the
/// batch's framed bytes; request_bytes is left to the caller.
SyncResult deliver_in_process(Replica& source, Replica& target,
                              ForwardingPolicy* source_policy,
                              const SyncContext& source_ctx,
                              const BatchPlan& plan,
                              const SyncOptions& options) {
  // Snapshot the knowledge before on_forward, exactly as build_batch
  // does: the pointer keeps this revision's wire form alive.
  const std::shared_ptr<const Knowledge> source_knowledge =
      source.knowledge().wire_form();
  const std::size_t knowledge_bytes = source.knowledge().size_bytes();
  const std::vector<Item> items =
      take_items(source, source_policy, source_ctx, plan);
  BatchApplier applier(target, options);
  for (const Item& item : items) applier.apply(item);
  SyncResult result = applier.finish(plan.complete, *source_knowledge);
  result.stats.batch_bytes =
      batch_wire_size(source.id(), plan.complete, items, knowledge_bytes);
  return result;
}

/// The exact Figure-4 answer to `target`, in process. Routing state is
/// processed here unless the summary step already did.
SyncResult exact_in_process(Replica& source, Replica& target,
                            ForwardingPolicy* source_policy,
                            const std::vector<std::uint8_t>& routing_state,
                            bool process_routing_state, SimTime now,
                            const SyncOptions& options) {
  // The request as sent, before the batch changes the target.
  const std::size_t request_bytes = request_wire_size(
      target.id(), target.filter(), target.knowledge(), routing_state);
  const std::shared_ptr<const Knowledge> request_knowledge =
      target.knowledge().wire_form();
  const SyncContext source_ctx{source.id(), target.id(), now};
  if (source_policy && process_routing_state)
    source_policy->process_request(source_ctx, routing_state);
  const BatchPlan plan =
      plan_batch(source, source_policy, source_ctx, target.filter(),
                 *request_knowledge, options);
  SyncResult result = deliver_in_process(source, target, source_policy,
                                         source_ctx, plan, options);
  result.stats.request_bytes = request_bytes;
  return result;
}

SyncResult run_summary_sync(Replica& source, Replica& target,
                            ForwardingPolicy* source_policy,
                            ForwardingPolicy* target_policy, SimTime now,
                            const SyncOptions& options) {
  // ---- target opens with the summary ----
  const SummaryRequestInfo summary_request = make_summary_request(
      target, target_policy, source.id(), now, options.summary);
  const std::size_t summary_bytes = wire_size(summary_request);

  // ---- source decides ----
  const SummaryAnswer::Kind kind =
      decide_summary(source, source_policy, summary_request, now, options);
  const std::size_t reply_bytes =
      framed_size(encode_summary_reply(source.id()).size());
  SyncResult result;
  switch (kind) {
    case SummaryAnswer::Kind::Match:
      result = apply_summary_match(target, options);
      result.stats.request_bytes = summary_bytes;
      result.stats.batch_bytes = reply_bytes;  // the SummaryMatch frame
      return result;
    case SummaryAnswer::Kind::Batch: {
      // Routing state was processed by decide_summary. The skip-fallback
      // mutant sends no items; otherwise the batch is planned against
      // empty knowledge (see decide_summary).
      const SyncContext source_ctx{source.id(), target.id(), now};
      const Knowledge none;
      const BatchPlan plan =
          options.unsafe_summary_skip_fallback
              ? BatchPlan{}
              : plan_batch(source, source_policy, source_ctx,
                           target.filter(), none, options);
      result = deliver_in_process(source, target, source_policy, source_ctx,
                                  plan, options);
      result.stats.request_bytes = summary_bytes;
      return result;
    }
    case SummaryAnswer::Kind::Miss:
      break;
  }

  // ---- Miss: same-session exact fallback ----
  // The fallback request reuses the routing state the summary already
  // carried (and decide_summary already processed): policy hooks run
  // exactly once per sync on every path.
  result = exact_in_process(source, target, source_policy,
                            summary_request.routing_state,
                            /*process_routing_state=*/false, now, options);
  result.stats.request_bytes += summary_bytes;
  result.stats.batch_bytes += reply_bytes;  // the SummaryMiss frame
  return result;
}

}  // namespace

SyncResult run_sync(Replica& source, Replica& target,
                    ForwardingPolicy* source_policy,
                    ForwardingPolicy* target_policy, SimTime now,
                    const SyncOptions& options) {
  // The in-process path needs no negotiation, so Auto means On.
  if (options.summary_mode != SummaryMode::Off) {
    return run_summary_sync(source, target, source_policy, target_policy,
                            now, options);
  }
  const std::vector<std::uint8_t> routing_state =
      routing_state_of(target, target_policy, source.id(), now);
  return exact_in_process(source, target, source_policy, routing_state,
                          /*process_routing_state=*/true, now, options);
}

}  // namespace pfrdtn::repl
