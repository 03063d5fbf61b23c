#include "repl/version.hpp"

namespace pfrdtn::repl {

void Version::serialize(ByteWriter& w) const {
  w.uvarint(author.value());
  w.uvarint(counter);
  w.uvarint(revision);
}

Version Version::deserialize(ByteReader& r) {
  Version v;
  v.author = ReplicaId(r.uvarint());
  v.counter = r.uvarint();
  v.revision = r.uvarint();
  return v;
}

bool VersionVector::covers(const VersionVector& other) const {
  for (const auto& [author, counter] : other.max_) {
    if (max_counter(author) < counter) return false;
  }
  return true;
}

void VersionVector::serialize(ByteWriter& w) const {
  w.uvarint(max_.size());
  for (const auto& [author, counter] : max_) {
    w.uvarint(author.value());
    w.uvarint(counter);
  }
}

VersionVector VersionVector::deserialize(ByteReader& r) {
  VersionVector vv;
  const std::uint64_t n = r.uvarint();
  for (std::uint64_t i = 0; i < n; ++i) {
    r.charge_elements();
    const ReplicaId author(r.uvarint());
    vv.extend(author, r.uvarint());
  }
  return vv;
}

void VersionSet::add(ReplicaId author, std::uint64_t counter,
                     bool pinned) {
  PFRDTN_REQUIRE(counter >= 1);
  if (contains(author, counter)) return;
  if (pinned) {
    pinned_[author].insert(counter);
  } else {
    extras_[author].insert(counter);
    compact(author);
  }
}

void VersionSet::unpin(ReplicaId author, std::uint64_t counter) {
  const auto it = pinned_.find(author);
  if (it == pinned_.end() || it->second.erase(counter) == 0) return;
  if (it->second.empty()) pinned_.erase(it);
  if (!vv_.includes(author, counter)) extras_[author].insert(counter);
  compact(author);
}

void VersionSet::add_prefix(ReplicaId author, std::uint64_t max_counter) {
  if (max_counter == 0) return;
  vv_.extend(author, max_counter);
  // Absorb extras (and release pinned ones) now inside the prefix.
  if (const auto it = pinned_.find(author); it != pinned_.end()) {
    std::erase_if(it->second, [&](std::uint64_t c) {
      return c <= max_counter;
    });
    if (it->second.empty()) pinned_.erase(it);
  }
  compact(author);
}

bool VersionSet::pin(ReplicaId author, std::uint64_t counter) {
  if (const auto it = pinned_.find(author);
      it != pinned_.end() && it->second.count(counter) > 0) {
    return true;  // already pinned
  }
  const auto it = extras_.find(author);
  if (it == extras_.end() || it->second.erase(counter) == 0)
    return false;  // folded into the prefix (or absent): cannot pin
  if (it->second.empty()) extras_.erase(it);
  pinned_[author].insert(counter);
  return true;
}

void VersionSet::compact(ReplicaId author) {
  const auto it = extras_.find(author);
  if (it == extras_.end()) return;
  auto& pending = it->second;
  const auto pinned_it = pinned_.find(author);
  const auto* pinned =
      pinned_it == pinned_.end() ? nullptr : &pinned_it->second;
  std::uint64_t next = vv_.max_counter(author) + 1;
  // Fold the contiguous run; a pinned event blocks folding past it so
  // it stays removable.
  while (!pending.empty() && *pending.begin() == next &&
         !(pinned && pinned->count(next))) {
    pending.erase(pending.begin());
    vv_.extend(author, next);
    ++next;
  }
  // Drop extras that fell inside the prefix (possible after merge()).
  while (!pending.empty() &&
         *pending.begin() <= vv_.max_counter(author)) {
    pending.erase(pending.begin());
  }
  if (pending.empty()) extras_.erase(it);
}

bool VersionSet::contains(ReplicaId author, std::uint64_t counter) const {
  if (vv_.includes(author, counter)) return true;
  if (const auto it = extras_.find(author);
      it != extras_.end() && it->second.count(counter) > 0) {
    return true;
  }
  const auto it = pinned_.find(author);
  return it != pinned_.end() && it->second.count(counter) > 0;
}

bool VersionSet::removable(ReplicaId author,
                           std::uint64_t counter) const {
  for (const auto* group : {&pinned_, &extras_}) {
    const auto it = group->find(author);
    if (it != group->end() && it->second.count(counter) > 0) return true;
  }
  return false;
}

bool VersionSet::remove_extra(ReplicaId author, std::uint64_t counter) {
  for (auto* group : {&pinned_, &extras_}) {
    const auto it = group->find(author);
    if (it != group->end() && it->second.erase(counter) > 0) {
      if (it->second.empty()) group->erase(it);
      return true;
    }
  }
  return false;
}

void VersionSet::merge(const VersionSet& other) {
  vv_.merge(other.vv_);
  for (const auto* group : {&other.extras_, &other.pinned_}) {
    // Claims merged from a peer are unpinned: pinning is a local
    // storage concern of the replica that holds the evictable copy.
    for (const auto& [author, counters] : *group) {
      for (const std::uint64_t counter : counters) {
        if (!contains(author, counter)) extras_[author].insert(counter);
      }
    }
  }
  // Merging the vectors may have absorbed or unblocked pre-existing
  // extras.
  std::vector<ReplicaId> authors;
  authors.reserve(extras_.size());
  for (const auto& [author, counters] : extras_) authors.push_back(author);
  for (const ReplicaId author : authors) compact(author);
}

bool VersionSet::contains_all(const VersionSet& other) const {
  if (!vv_.covers(other.vv_)) {
    // The vector part of `other` might still be covered via extras;
    // check entry by entry (counters are dense from 1).
    for (const auto& [author, counter] : other.vv_.entries()) {
      for (std::uint64_t c = vv_.max_counter(author) + 1; c <= counter;
           ++c) {
        if (!contains(author, c)) return false;
      }
    }
  }
  for (const auto* group : {&other.extras_, &other.pinned_}) {
    for (const auto& [author, counters] : *group) {
      for (const std::uint64_t counter : counters) {
        if (!contains(author, counter)) return false;
      }
    }
  }
  return true;
}

std::size_t VersionSet::count_of(
    const std::map<ReplicaId, std::set<std::uint64_t>>& extras) {
  std::size_t n = 0;
  for (const auto& [author, counters] : extras) n += counters.size();
  return n;
}

std::size_t VersionSet::extras_count() const {
  return count_of(extras_) + count_of(pinned_);
}

bool VersionSet::empty() const {
  return vv_.entry_count() == 0 && extras_.empty() && pinned_.empty();
}

namespace {

void serialize_extras(
    ByteWriter& w,
    const std::map<ReplicaId, std::set<std::uint64_t>>& extras) {
  w.uvarint(extras.size());
  for (const auto& [author, counters] : extras) {
    w.uvarint(author.value());
    w.uvarint(counters.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t counter : counters) {
      w.uvarint(counter - prev);  // delta-encoded, counters ascending
      prev = counter;
    }
  }
}

using ExtrasMap = std::map<ReplicaId, std::set<std::uint64_t>>;

/// Visit the ascending union of two counter sets.
template <typename Fn>
void for_each_in_union(const std::set<std::uint64_t>& a,
                       const std::set<std::uint64_t>& b, Fn&& fn) {
  auto ai = a.begin();
  auto bi = b.begin();
  while (ai != a.end() || bi != b.end()) {
    if (bi == b.end() || (ai != a.end() && *ai < *bi)) {
      fn(*ai++);
    } else if (ai == a.end() || *bi < *ai) {
      fn(*bi++);
    } else {
      fn(*ai++);
      ++bi;
    }
  }
}

/// Visit every author of either map in ascending order, with its
/// counter sets in both (empty where the author is absent).
template <typename Fn>
void for_each_author_in_union(const ExtrasMap& a, const ExtrasMap& b,
                              Fn&& fn) {
  static const std::set<std::uint64_t> kNone;
  auto ai = a.begin();
  auto bi = b.begin();
  while (ai != a.end() || bi != b.end()) {
    if (bi == b.end() || (ai != a.end() && ai->first < bi->first)) {
      fn(ai->first, ai->second, kNone);
      ++ai;
    } else if (ai == a.end() || bi->first < ai->first) {
      fn(bi->first, kNone, bi->second);
      ++bi;
    } else {
      fn(ai->first, ai->second, bi->second);
      ++ai;
      ++bi;
    }
  }
}

}  // namespace

void VersionSet::serialize(ByteWriter& w) const {
  // Pinned-ness is local; on the wire both groups are plain extras:
  // the bytes serialize_extras would write for the union of the two
  // maps, produced by a merge-walk instead of a merged copy.
  vv_.serialize(w);
  std::size_t authors = 0;
  for_each_author_in_union(
      extras_, pinned_,
      [&](ReplicaId, const auto&, const auto&) { ++authors; });
  w.uvarint(authors);
  for_each_author_in_union(
      extras_, pinned_,
      [&](ReplicaId author, const std::set<std::uint64_t>& extras,
          const std::set<std::uint64_t>& pinned) {
        std::size_t count = 0;
        for_each_in_union(extras, pinned, [&](std::uint64_t) { ++count; });
        w.uvarint(author.value());
        w.uvarint(count);
        std::uint64_t prev = 0;
        for_each_in_union(extras, pinned, [&](std::uint64_t counter) {
          w.uvarint(counter - prev);  // delta-encoded, counters ascending
          prev = counter;
        });
      });
}

VersionSet VersionSet::deserialize(ByteReader& r) {
  VersionSet vs;
  vs.vv_ = VersionVector::deserialize(r);
  const std::uint64_t groups = r.uvarint();
  for (std::uint64_t g = 0; g < groups; ++g) {
    r.charge_elements();
    const ReplicaId author(r.uvarint());
    const std::uint64_t n = r.uvarint();
    std::uint64_t counter = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      r.charge_elements();
      counter += r.uvarint();
      if (!vs.vv_.includes(author, counter))
        vs.extras_[author].insert(counter);
    }
    vs.compact(author);
  }
  return vs;
}

void VersionSet::serialize_exact(ByteWriter& w) const {
  vv_.serialize(w);
  serialize_extras(w, extras_);
  serialize_extras(w, pinned_);
}

namespace {

/// Decode one delta-encoded extras group map, validating that every
/// counter is strictly ascending and strictly above the prefix.
std::map<ReplicaId, std::set<std::uint64_t>> deserialize_extras_exact(
    ByteReader& r, const VersionVector& vv) {
  std::map<ReplicaId, std::set<std::uint64_t>> out;
  const std::uint64_t groups = r.uvarint();
  for (std::uint64_t g = 0; g < groups; ++g) {
    const ReplicaId author(r.uvarint());
    PFRDTN_REQUIRE(author.valid());
    PFRDTN_REQUIRE(out.count(author) == 0);
    const std::uint64_t n = r.uvarint();
    PFRDTN_REQUIRE(n <= r.remaining());  // each delta needs >= 1 byte
    auto& counters = out[author];
    std::uint64_t counter = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t delta = r.uvarint();
      PFRDTN_REQUIRE(delta >= 1);  // strictly ascending, >= 1
      PFRDTN_REQUIRE(counter <= ~std::uint64_t{0} - delta);
      counter += delta;
      PFRDTN_REQUIRE(counter > vv.max_counter(author));
      counters.insert(counter);
    }
    if (counters.empty()) out.erase(author);
  }
  return out;
}

}  // namespace

VersionSet VersionSet::deserialize_exact(ByteReader& r) {
  VersionSet vs;
  vs.vv_ = VersionVector::deserialize(r);
  vs.extras_ = deserialize_extras_exact(r, vs.vv_);
  vs.pinned_ = deserialize_extras_exact(r, vs.vv_);
  // Extras and pinned must be disjoint, and the smallest unpinned
  // extra must not sit directly on the prefix (compact() would have
  // folded it) — a decoded set violating either is not one this code
  // ever wrote.
  for (const auto& [author, counters] : vs.extras_) {
    PFRDTN_REQUIRE(*counters.begin() !=
                   vs.vv_.max_counter(author) + 1);
    const auto pinned_it = vs.pinned_.find(author);
    if (pinned_it == vs.pinned_.end()) continue;
    for (const std::uint64_t counter : counters)
      PFRDTN_REQUIRE(pinned_it->second.count(counter) == 0);
  }
  return vs;
}

}  // namespace pfrdtn::repl
