#include "repl/store.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace pfrdtn::repl {

ItemStore::ItemStore(const ItemStore& other)
    : config_(other.config_),
      entries_(other.entries_),
      order_(other.order_),
      next_seq_(other.next_seq_) {
  for (auto& [id, entry] : entries_) index(entry);
}

ItemStore& ItemStore::operator=(const ItemStore& other) {
  if (this != &other) *this = ItemStore(other);
  return *this;
}

void ItemStore::index(Entry& entry) {
  if (!entry.in_filter) ++relay_count_;
  if (entry.evictable())
    evictable_order_.emplace(entry.arrival_seq, entry.item.id());
  evictable_count_ = evictable_order_.size();
  for (const HostId dest : entry.item.dest_addresses())
    dest_index_[dest].emplace(entry.item.id(), &entry);
  const Version& v = entry.item.version();
  version_index_[v.author].emplace(v.counter, &entry);
}

void ItemStore::unindex(const Entry& entry) {
  if (!entry.in_filter) --relay_count_;
  if (entry.evictable()) evictable_order_.erase(entry.arrival_seq);
  evictable_count_ = evictable_order_.size();
  const auto& dests = entry.item.dest_addresses();
  for (auto dest = dests.begin(); dest != dests.end(); ++dest) {
    // A repeated address ("3,3": peer-supplied metadata) was indexed
    // once, so it is unindexed once.
    if (std::find(dests.begin(), dest, *dest) != dest) continue;
    const auto bucket = dest_index_.find(*dest);
    PFRDTN_ENSURE(bucket != dest_index_.end());
    bucket->second.erase(entry.item.id());
    if (bucket->second.empty()) dest_index_.erase(bucket);
  }
  const Version& v = entry.item.version();
  const auto author = version_index_.find(v.author);
  PFRDTN_ENSURE(author != version_index_.end());
  auto [it, end] = author->second.equal_range(v.counter);
  while (it != end && it->second != &entry) ++it;
  PFRDTN_ENSURE(it != end);
  author->second.erase(it);
  if (author->second.empty()) version_index_.erase(author);
}

std::vector<Item> ItemStore::put(Item item, bool in_filter,
                                 bool local_origin) {
  const ItemId id = item.id();
  auto& entry = entries_[id];
  if (entry.item.id().valid()) {
    unindex(entry);
    order_.erase(entry.arrival_seq);
  }
  entry.item = std::move(item);
  entry.in_filter = in_filter;
  entry.local_origin = entry.local_origin || local_origin;
  entry.arrival_seq = next_seq_++;
  order_.emplace(entry.arrival_seq, id);
  index(entry);
  return enforce_capacity();
}

const ItemStore::Entry* ItemStore::find(ItemId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

bool ItemStore::remove(ItemId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  unindex(it->second);
  order_.erase(it->second.arrival_seq);
  entries_.erase(it);
  return true;
}

void ItemStore::supersede(ItemId id, Item::PayloadPtr payload,
                          bool in_filter, bool make_local_origin) {
  const auto it = entries_.find(id);
  PFRDTN_REQUIRE(it != entries_.end());
  Entry& entry = it->second;
  unindex(entry);
  entry.item.adopt_payload(std::move(payload));
  entry.in_filter = in_filter;
  entry.local_origin = entry.local_origin || make_local_origin;
  index(entry);
}

std::optional<TransientView> ItemStore::transient_mutable(ItemId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return TransientView(it->second.item);
}

bool ItemStore::replace_transients(
    ItemId id, std::map<std::string, std::string> all) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  it->second.item.replace_transients(std::move(all));
  return true;
}

std::vector<Item> ItemStore::refilter(
    const std::function<bool(const Item&)>& matches,
    std::vector<Item>& evicted) {
  // Iterate via order_, not entries_: the output order is part of the
  // API (newly matching items surface as deliveries), and hash-map
  // order would diverge between identically-seeded replicas.
  std::vector<Item> newly_matching;
  for (const auto& [seq, id] : order_) {
    Entry& entry = entries_.at(id);
    const bool now = matches(entry.item);
    if (now == entry.in_filter) continue;
    unindex(entry);
    entry.in_filter = now;
    index(entry);
    if (now) newly_matching.push_back(entry.item);
  }
  auto victims = enforce_capacity();
  evicted.insert(evicted.end(), victims.begin(), victims.end());
  return newly_matching;
}

std::vector<Item> ItemStore::enforce_capacity() {
  std::vector<Item> victims;
  if (!config_.relay_capacity) return victims;
  while (evictable_count_ > *config_.relay_capacity) {
    const auto victim_it = config_.eviction == EvictionOrder::Fifo
                               ? evictable_order_.begin()
                               : std::prev(evictable_order_.end());
    PFRDTN_ENSURE(victim_it != evictable_order_.end());
    const ItemId id = victim_it->second;
    victims.push_back(entries_.at(id).item);
    remove(id);
  }
  return victims;
}

void ItemStore::for_each(
    const std::function<void(const Entry&)>& fn) const {
  for (const auto& [seq, id] : order_) fn(entries_.at(id));
}

void ItemStore::for_each_transient(
    const std::function<void(const Entry&, TransientView)>& fn) {
  for (const auto& [seq, id] : order_) {
    Entry& entry = entries_.at(id);
    fn(entry, TransientView(entry.item));
  }
}

void ItemStore::for_each_transient_above(
    const VersionVector& known,
    const std::function<void(const Entry&, TransientView)>& fn) {
  std::vector<Entry*> above;
  for (const auto& [author, by_counter] : version_index_) {
    for (auto it = by_counter.upper_bound(known.max_counter(author));
         it != by_counter.end(); ++it) {
      above.push_back(it->second);
    }
  }
  std::sort(above.begin(), above.end(), [](const Entry* a, const Entry* b) {
    return a->arrival_seq < b->arrival_seq;
  });
  for (Entry* entry : above) fn(*entry, TransientView(entry->item));
}

bool ItemStore::for_filter_matches(
    const Filter& filter,
    const std::function<bool(const Entry&)>& fn) const {
  if (filter.provably_empty()) return true;  // nothing can match
  if (filter.is_address_filter()) {
    const std::set<HostId> addrs = filter.address_set();
    // An item addressed to several filter addresses sits in several
    // buckets; dedup only when that is possible.
    if (addrs.size() == 1) {
      const auto bucket = dest_index_.find(*addrs.begin());
      if (bucket == dest_index_.end()) return true;
      for (const auto& [id, entry] : bucket->second) {
        if (!fn(*entry)) return true;
      }
      return true;
    }
    std::unordered_set<std::uint64_t> seen;
    for (const HostId addr : addrs) {
      const auto bucket = dest_index_.find(addr);
      if (bucket == dest_index_.end()) continue;
      for (const auto& [id, entry] : bucket->second) {
        if (!seen.insert(id.value()).second) continue;
        if (!fn(*entry)) return true;
      }
    }
    return true;
  }
  // General filters: arrival-order scan with per-entry evaluation.
  for (const auto& [seq, id] : order_) {
    const Entry& entry = entries_.at(id);
    if (filter.matches(entry.item) && !fn(entry)) break;
  }
  return false;
}

void ItemStore::restore_entry(Item item, bool in_filter,
                              bool local_origin,
                              std::uint64_t arrival_seq) {
  const ItemId id = item.id();
  PFRDTN_REQUIRE(id.valid());
  PFRDTN_REQUIRE(entries_.count(id) == 0);
  PFRDTN_REQUIRE(order_.count(arrival_seq) == 0);
  auto& entry = entries_[id];
  entry.item = std::move(item);
  entry.in_filter = in_filter;
  entry.local_origin = local_origin;
  entry.arrival_seq = arrival_seq;
  order_.emplace(arrival_seq, id);
  index(entry);
  if (next_seq_ <= arrival_seq) next_seq_ = arrival_seq + 1;
}

void ItemStore::set_next_arrival_seq(std::uint64_t seq) {
  PFRDTN_REQUIRE(seq >= next_seq_);
  next_seq_ = seq;
}

std::string ItemStore::check_indexes() const {
  // Every entry must sit in each index under its own keys, and no index
  // may hold more elements than the entries account for: together that
  // is "index == rebuild", checked without building one.
  std::size_t relay = 0;
  std::size_t evictable = 0;
  std::size_t dest_refs = 0;
  for (const auto& [id, entry] : entries_) {
    if (!entry.in_filter) ++relay;
    if (entry.evictable()) {
      ++evictable;
      const auto it = evictable_order_.find(entry.arrival_seq);
      if (it == evictable_order_.end() || it->second != id)
        return "evictable order misses " + id.str();
    }
    const auto& dests = entry.item.dest_addresses();
    for (auto addr = dests.begin(); addr != dests.end(); ++addr) {
      if (std::find(dests.begin(), addr, *addr) != addr) continue;
      ++dest_refs;  // a repeated address is indexed once
      const auto bucket = dest_index_.find(*addr);
      if (bucket == dest_index_.end()) return "dest index misses " + id.str();
      const auto slot = bucket->second.find(id);
      if (slot == bucket->second.end() || slot->second != &entry)
        return "dest index misses " + id.str();
    }
    const Version& v = entry.item.version();
    const auto author = version_index_.find(v.author);
    bool indexed = false;
    if (author != version_index_.end()) {
      auto [it, last] = author->second.equal_range(v.counter);
      while (it != last && it->second != &entry) ++it;
      indexed = it != last;
    }
    if (!indexed) return "version index misses " + id.str();
  }
  if (relay != relay_count_) return "relay count drifted from the entries";
  if (evictable != evictable_order_.size() || evictable != evictable_count_)
    return "evictable order holds entries it should not";
  std::size_t indexed_dest = 0;
  for (const auto& [addr, bucket] : dest_index_) indexed_dest += bucket.size();
  if (indexed_dest != dest_refs)
    return "dest index holds entries it should not";
  std::size_t indexed_versions = 0;
  for (const auto& [author, by_counter] : version_index_)
    indexed_versions += by_counter.size();
  if (indexed_versions != entries_.size())
    return "version index holds entries it should not";
  return "";
}

void ItemStore::set_in_filter_for_test(ItemId id, bool in_filter) {
  const auto it = entries_.find(id);
  PFRDTN_REQUIRE(it != entries_.end());
  Entry& entry = it->second;
  if (entry.in_filter == in_filter) return;
  unindex(entry);
  entry.in_filter = in_filter;
  index(entry);
}

}  // namespace pfrdtn::repl
