#include "repl/knowledge.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace pfrdtn::repl {

bool Knowledge::knows(const Item& item, const Version& v) const {
  if (universal_.contains(v.author, v.counter)) return true;
  return std::any_of(fragments_.begin(), fragments_.end(),
                     [&](const Fragment& fragment) {
                       return fragment.versions.contains(v.author,
                                                         v.counter) &&
                              fragment.scope.matches(item);
                     });
}

void Knowledge::drop_fragments_matching(const Item& item) {
  const std::size_t dropped =
      std::erase_if(fragments_, [&](const Fragment& fragment) {
        return fragment.scope.matches(item);
      });
  if (dropped > 0) touch();
}

void Knowledge::add_fragment(Fragment fragment) {
  if (fragment.scope.provably_empty() || fragment.versions.empty())
    return;
  // Anything the universal set already covers adds nothing. (This is
  // also what keeps the summary caches warm across converged syncs:
  // re-learning knowledge we already hold must not bump the revision.)
  if (universal_.contains_all(fragment.versions)) return;
  for (auto& existing : fragments_) {
    if (existing.scope.equals(fragment.scope)) {
      if (existing.versions.contains_all(fragment.versions)) return;
      existing.versions.merge(fragment.versions);
      touch();
      return;
    }
    // Subsumed by a wider, richer fragment: drop the new one.
    if (existing.scope.subsumes(fragment.scope) &&
        existing.versions.contains_all(fragment.versions)) {
      return;
    }
  }
  // Drop existing fragments the new one strictly covers.
  std::erase_if(fragments_, [&](const Fragment& existing) {
    return fragment.scope.subsumes(existing.scope) &&
           fragment.versions.contains_all(existing.versions);
  });
  fragments_.push_back(std::move(fragment));
  enforce_fragment_cap();
  touch();
}

void Knowledge::enforce_fragment_cap() {
  if (fragments_.size() <= kMaxFragments) return;
  // Forget the lightest fragments first; forgetting is always safe.
  std::sort(fragments_.begin(), fragments_.end(),
            [](const Fragment& a, const Fragment& b) {
              return a.versions.weight() > b.versions.weight();
            });
  fragments_.resize(kMaxFragments);
}

void Knowledge::merge_scoped(const Knowledge& other, const Filter& scope) {
  if (scope.provably_empty()) return;
  add_fragment(Fragment{scope, other.universal_});
  for (const Fragment& fragment : other.fragments_) {
    add_fragment(
        Fragment{scope.intersect(fragment.scope), fragment.versions});
  }
}

std::size_t Knowledge::size_bytes() const {
  refresh_wire_cache();
  return wire_size_cache_;
}

std::size_t Knowledge::weight() const {
  std::size_t total = universal_.weight();
  for (const Fragment& fragment : fragments_)
    total += fragment.versions.weight();
  return total;
}

void Knowledge::refresh_wire_cache() const {
  if (wire_cache_revision_ == revision_) return;
  ByteWriter w;
  serialize(w);
  ByteReader r(w.bytes());
  auto decoded = std::make_shared<Knowledge>(deserialize(r));
  PFRDTN_ENSURE(r.done());
  wire_size_cache_ = w.size();
  digest_cache_ = fnv1a64(w.bytes());
  wire_form_cache_ = std::move(decoded);
  wire_cache_revision_ = revision_;
}

std::uint64_t Knowledge::wire_digest() const {
  refresh_wire_cache();
  return digest_cache_;
}

std::shared_ptr<const Knowledge> Knowledge::wire_form() const {
  refresh_wire_cache();
  return wire_form_cache_;
}

std::uint64_t Knowledge::event_count() const {
  std::uint64_t total = universal_.event_count();
  for (const Fragment& fragment : fragments_)
    total += fragment.versions.event_count();
  return total;
}

void Knowledge::serialize(ByteWriter& w) const {
  universal_.serialize(w);
  w.uvarint(fragments_.size());
  for (const Fragment& fragment : fragments_) {
    fragment.scope.serialize(w);
    fragment.versions.serialize(w);
  }
}

Knowledge Knowledge::deserialize(ByteReader& r) {
  Knowledge k;
  k.universal_ = VersionSet::deserialize(r);
  const std::uint64_t n = r.uvarint();
  for (std::uint64_t i = 0; i < n; ++i) {
    r.charge_elements();
    Filter scope = Filter::deserialize(r);
    VersionSet versions = VersionSet::deserialize(r);
    k.add_fragment(Fragment{std::move(scope), std::move(versions)});
  }
  return k;
}

void Knowledge::serialize_exact(ByteWriter& w) const {
  universal_.serialize_exact(w);
  w.uvarint(fragments_.size());
  for (const Fragment& fragment : fragments_) {
    fragment.scope.serialize(w);
    fragment.versions.serialize_exact(w);
  }
}

Knowledge Knowledge::deserialize_exact(ByteReader& r) {
  Knowledge k;
  k.universal_ = VersionSet::deserialize_exact(r);
  const std::uint64_t n = r.uvarint();
  PFRDTN_REQUIRE(n <= kMaxFragments);
  k.fragments_.reserve(n);
  // Fragments are restored verbatim, bypassing add_fragment()'s
  // dedup/subsumption so the recovered vector matches the snapshotted
  // one element for element.
  for (std::uint64_t i = 0; i < n; ++i) {
    Filter scope = Filter::deserialize(r);
    VersionSet versions = VersionSet::deserialize_exact(r);
    k.fragments_.push_back(
        Fragment{std::move(scope), std::move(versions)});
  }
  return k;
}

}  // namespace pfrdtn::repl
