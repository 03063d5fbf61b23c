#pragma once

/// \file knowledge.hpp
/// Per-replica knowledge: which update events this replica has seen.
///
/// Knowledge answers "does this replica already know update (author,
/// counter) of this item?" — the question the sync protocol asks to
/// guarantee at-most-once delivery. It is kept compact the way
/// Cimbiosys keeps it compact: a *universal* version set (exact update
/// events this replica received or authored, compacting into a version
/// vector) plus *scoped fragments* — claims of the form "I know every
/// event in version-set V that applies to items matching filter S",
/// learned by merging a sync partner's knowledge after a complete sync,
/// scoped to our own filter.
///
/// Soundness invariant (checked by the emulator's oracle in debug
/// runs): whenever knows(i, v) holds at replica R, R stores item i at a
/// version that is v or dominates v, or R stores a tombstone for i, or
/// i does not match R's filter and R's copy was never required. The
/// operations below each preserve it; see DESIGN.md §2 for the
/// eviction/filter-change discipline that keeps it true.

#include <memory>
#include <optional>
#include <vector>

#include "repl/filter.hpp"
#include "repl/item.hpp"
#include "repl/version.hpp"

namespace pfrdtn::repl {

class BloomFilter;  // summary.hpp

/// Tuning of the knowledge summary a replica offers its sync peers
/// (see summary.hpp and docs/net.md). Bits-per-element and hash count
/// follow the Bloom-parameter framework of Marandi et al. (PAPERS.md):
/// for m/n bits per element the false-positive rate is minimized by
/// k = ln2 * m/n hash functions, giving fp ~ 0.5^k — the default 10
/// bits / 7 hashes lands near 0.8%.
struct SummaryParams {
  std::uint32_t bits_per_element = 10;
  std::uint32_t hash_count = 7;
  /// Knowledge holding more events than this never gets a Bloom filter
  /// (the digest tier still applies): bounds the build cost of a cache
  /// rebuild and the memory a summary can occupy.
  std::uint32_t max_bloom_elements = 4096;
  /// A filter bigger than this many bytes is never *sent* — at that
  /// size the exact codec is competitive and the digest tier already
  /// handles the converged case in O(1).
  std::uint32_t max_bloom_bytes = 512;

  /// k minimizing the false-positive rate at a given m/n, per Marandi
  /// et al.: round(ln2 * bits_per_element), clamped to [1, 32].
  [[nodiscard]] static std::uint32_t optimal_hash_count(
      std::uint32_t bits_per_element);

  friend bool operator==(const SummaryParams&,
                         const SummaryParams&) = default;
};

class Knowledge {
 public:
  /// One scoped claim: every event in `versions` that applies to an
  /// item matching `scope` is known.
  struct Fragment {
    Filter scope;
    VersionSet versions;
  };

  /// Maximum number of scoped fragments retained; excess fragments are
  /// discarded smallest-first (forgetting knowledge is always safe —
  /// the worst case is receiving an item copy twice).
  static constexpr std::size_t kMaxFragments = 32;

  /// Does this replica know the update (v.author, v.counter) as it
  /// applies to `item`?
  [[nodiscard]] bool knows(const Item& item, const Version& v) const;

  /// Record receipt or authorship of an exact update event.
  void add_exact(const Version& v) {
    if (universal_.contains(v)) return;
    universal_.add(v);
    touch();
  }

  /// Record receipt of a relay (out-of-filter) copy's event: pinned, so
  /// a later eviction can forget it (see VersionSet).
  void add_exact_pinned(const Version& v) {
    if (universal_.contains(v)) return;
    universal_.add(v, /*pinned=*/true);
    touch();
  }

  /// Record that every event authored by `author` up to `max_counter`
  /// is known (a replica knows its own authored prefix by
  /// construction).
  void add_authored_prefix(ReplicaId author, std::uint64_t max_counter) {
    if (max_counter <= universal_.vector_part().max_counter(author))
      return;
    universal_.add_prefix(author, max_counter);
    touch();
  }

  /// Forget an exact event (relay eviction), so the copy can be
  /// re-received later. Returns false if the event has already been
  /// folded into the universal vector prefix and cannot be forgotten.
  bool forget_exact(const Version& v) {
    const bool removed = universal_.remove_extra(v.author, v.counter);
    if (removed) touch();
    return removed;
  }

  /// True if forget_exact(v) would succeed. The eviction discipline
  /// requires this of every evictable relay copy's current version —
  /// an unforgettable event would make the copy un-re-receivable and,
  /// propagated through fragment merges, break eventual filter
  /// consistency (probed by Replica::check_invariants and src/check/).
  [[nodiscard]] bool can_forget(const Version& v) const {
    return universal_.removable(v.author, v.counter);
  }

  /// Drop every scoped fragment whose scope matches `item` — required
  /// when evicting a stored copy of `item`, because fragments may claim
  /// knowledge of events for it (see DESIGN.md).
  void drop_fragments_matching(const Item& item);

  /// Merge a sync partner's knowledge, restricted to `scope` (the
  /// receiving replica's filter intersected with what the partner can
  /// vouch for). Only sound after a *complete* sync.
  void merge_scoped(const Knowledge& other, const Filter& scope);

  /// The universal (scope-free) part.
  [[nodiscard]] const VersionSet& universal() const { return universal_; }
  [[nodiscard]] const std::vector<Fragment>& fragments() const {
    return fragments_;
  }

  /// Metadata footprint in serialized bytes (cached per revision).
  [[nodiscard]] std::size_t size_bytes() const;
  /// Abstract weight (vector entries + extras across all parts) for
  /// compaction benchmarks.
  [[nodiscard]] std::size_t weight() const;

  // ---- derived views, cached per revision (docs/knowledge.md) --------
  //
  // The sync paths need several views derived from this knowledge's
  // wire form: its encoded size (byte accounting), a digest of it
  // (equal digests => byte-identical wire knowledge, the summary
  // exchange's converged test), the value a peer decodes from it, and
  // a Bloom filter over every known event. All are cached against
  // `revision_`, which every mutation that actually changes the value
  // bumps — so a sync against unchanged knowledge pays O(1) for them
  // instead of an encode (and decode) per use. The first three come
  // from one serialization.

  /// Monotone change counter: bumps exactly when the knowledge value
  /// changes (no-op merges and duplicate adds leave it untouched, which
  /// is what keeps the caches warm across converged syncs).
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// FNV-1a 64 digest of serialize()'s output, cached per revision.
  [[nodiscard]] std::uint64_t wire_digest() const;

  /// decode(encode(*this)): the knowledge a peer holds after receiving
  /// this one over the wire, cached per revision. The wire codec erases
  /// pinning and refolds extras into the version vector, so the decoded
  /// value can differ from this one; the in-process sync path learns
  /// from and answers against this form to behave exactly like a
  /// transport. Shared and immutable: holding the pointer keeps the
  /// value alive across later mutations of this knowledge.
  [[nodiscard]] std::shared_ptr<const Knowledge> wire_form() const;

  /// Total known events: universal plus fragment version sets
  /// (scope-erased; events present in both are counted twice, which
  /// only over-sizes a Bloom filter). O(entries), not O(events).
  [[nodiscard]] std::uint64_t event_count() const;

  /// Cached Bloom filter over every known event, or null when `params`
  /// says this knowledge should not ship one (too many events, filter
  /// bigger than the cap or than the exact codec). Defined in
  /// summary.cpp.
  [[nodiscard]] std::shared_ptr<const BloomFilter> bloom(
      const SummaryParams& params) const;

  void serialize(ByteWriter& w) const;
  static Knowledge deserialize(ByteReader& r);

  /// Structure-preserving codec for checkpoints (src/persist/): keeps
  /// pinned extras pinned and fragments verbatim (order, structure),
  /// where the wire codec re-canonicalizes both. A recovered replica
  /// must be byte-identical to the one that crashed, including the
  /// local-only pinning that keeps evictable relay copies forgettable.
  void serialize_exact(ByteWriter& w) const;
  static Knowledge deserialize_exact(ByteReader& r);

 private:
  void add_fragment(Fragment fragment);
  void enforce_fragment_cap();

  /// Invalidate the derived-view caches after a real value change.
  void touch() { ++revision_; }

  /// Fill the wire cache (size, digest, decoded form) for `revision_`
  /// from one serialization, unless it is already current.
  void refresh_wire_cache() const;

  VersionSet universal_;
  std::vector<Fragment> fragments_;

  std::uint64_t revision_ = 1;
  // Derived-view caches: value-derived, so copying them along with the
  // object keeps them consistent (the decoded form and the Bloom cache
  // are shared immutably).
  mutable std::uint64_t wire_cache_revision_ = 0;
  mutable std::size_t wire_size_cache_ = 0;
  mutable std::uint64_t digest_cache_ = 0;
  mutable std::shared_ptr<const Knowledge> wire_form_cache_;
  mutable std::uint64_t bloom_cache_revision_ = 0;
  mutable std::optional<SummaryParams> bloom_cache_params_;
  mutable std::shared_ptr<const BloomFilter> bloom_cache_;
};

}  // namespace pfrdtn::repl
