#include "repl/knowledge.hpp"

#include <gtest/gtest.h>

namespace pfrdtn::repl {
namespace {

Item message_to(std::uint64_t dest, std::uint64_t id = 1) {
  return Item(ItemId(id), Version{ReplicaId(1), 1, 1},
              {{meta::kDest, std::to_string(dest)}}, {});
}

Version v(std::uint64_t author, std::uint64_t counter) {
  return Version{ReplicaId(author), counter, 1};
}

TEST(Knowledge, ExactEventsAreScopeFree) {
  Knowledge k;
  k.add_exact(v(2, 7));
  // The exact event is known for any item shape.
  EXPECT_TRUE(k.knows(message_to(1), v(2, 7)));
  EXPECT_TRUE(k.knows(message_to(9), v(2, 7)));
  EXPECT_FALSE(k.knows(message_to(1), v(2, 8)));
}

TEST(Knowledge, ForgetExactPinned) {
  Knowledge k;
  k.add_exact_pinned(v(2, 7));
  EXPECT_TRUE(k.knows(message_to(1), v(2, 7)));
  EXPECT_TRUE(k.forget_exact(v(2, 7)));
  EXPECT_FALSE(k.knows(message_to(1), v(2, 7)));
}

TEST(Knowledge, FoldedExactCannotBeForgotten) {
  Knowledge k;
  k.add_exact(v(2, 1));  // folds into the vector immediately
  EXPECT_FALSE(k.forget_exact(v(2, 1)));
  EXPECT_TRUE(k.knows(message_to(1), v(2, 1)));
}

TEST(Knowledge, ScopedMergeRestrictsClaims) {
  Knowledge source;
  source.add_exact(v(3, 1));
  Knowledge target;
  target.merge_scoped(source, Filter::addresses({HostId(5)}));
  // Claim applies to items addressed to 5 only.
  EXPECT_TRUE(target.knows(message_to(5), v(3, 1)));
  EXPECT_FALSE(target.knows(message_to(6), v(3, 1)));
}

TEST(Knowledge, ScopedMergeIntersectsFragmentScopes) {
  Knowledge a;
  a.add_exact(v(3, 1));
  Knowledge b;
  b.merge_scoped(a, Filter::addresses({HostId(1), HostId(2)}));
  Knowledge c;
  c.merge_scoped(b, Filter::addresses({HostId(2), HostId(4)}));
  // Only the intersection {2} survives the double scoping.
  EXPECT_TRUE(c.knows(message_to(2), v(3, 1)));
  EXPECT_FALSE(c.knows(message_to(1), v(3, 1)));
  EXPECT_FALSE(c.knows(message_to(4), v(3, 1)));
}

TEST(Knowledge, MergeWithEmptyScopeIsNoop) {
  Knowledge source;
  source.add_exact(v(3, 1));
  Knowledge target;
  target.merge_scoped(source, Filter::none());
  EXPECT_FALSE(target.knows(message_to(1), v(3, 1)));
  EXPECT_TRUE(target.fragments().empty());
}

TEST(Knowledge, FragmentsWithEqualScopeUnion) {
  Knowledge s1, s2;
  s1.add_exact(v(3, 5));
  s2.add_exact(v(4, 6));
  Knowledge target;
  const auto scope = Filter::addresses({HostId(1)});
  target.merge_scoped(s1, scope);
  target.merge_scoped(s2, scope);
  EXPECT_EQ(target.fragments().size(), 1u);
  EXPECT_TRUE(target.knows(message_to(1), v(3, 5)));
  EXPECT_TRUE(target.knows(message_to(1), v(4, 6)));
}

TEST(Knowledge, SubsumedFragmentIsDropped) {
  Knowledge source;
  source.add_exact(v(3, 5));
  Knowledge target;
  target.merge_scoped(source, Filter::addresses({HostId(1)}));
  target.merge_scoped(source, Filter::addresses({HostId(1), HostId(2)}));
  // The narrow fragment is covered by the wide one.
  EXPECT_EQ(target.fragments().size(), 1u);
  EXPECT_TRUE(target.knows(message_to(2), v(3, 5)));
}

TEST(Knowledge, UniversalCoverageSkipsFragmentCreation) {
  Knowledge source;
  source.add_exact(v(3, 5));
  Knowledge target;
  target.add_exact(v(3, 5));
  target.merge_scoped(source, Filter::addresses({HostId(1)}));
  EXPECT_TRUE(target.fragments().empty());
}

TEST(Knowledge, DropFragmentsMatchingItem) {
  Knowledge source;
  source.add_exact(v(3, 5));
  Knowledge target;
  target.merge_scoped(source, Filter::addresses({HostId(1)}));
  ASSERT_TRUE(target.knows(message_to(1), v(3, 5)));
  target.drop_fragments_matching(message_to(1));
  EXPECT_FALSE(target.knows(message_to(1), v(3, 5)));
}

TEST(Knowledge, FragmentCapEnforced) {
  Knowledge target;
  for (std::uint64_t i = 0; i < Knowledge::kMaxFragments + 10; ++i) {
    Knowledge source;
    // Distinct authors so universal coverage can't absorb them.
    source.add_exact(v(100 + i, 2));
    target.merge_scoped(source, Filter::addresses({HostId(i + 1)}));
  }
  EXPECT_LE(target.fragments().size(), Knowledge::kMaxFragments);
}

TEST(Knowledge, WireRoundTrip) {
  Knowledge k;
  k.add_exact(v(1, 1));
  k.add_exact_pinned(v(2, 9));
  Knowledge source;
  source.add_exact(v(3, 4));
  k.merge_scoped(source, Filter::addresses({HostId(7)}));
  ByteWriter w;
  k.serialize(w);
  ByteReader r(w.bytes());
  const Knowledge got = Knowledge::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(got.knows(message_to(1), v(1, 1)));
  EXPECT_TRUE(got.knows(message_to(1), v(2, 9)));
  EXPECT_TRUE(got.knows(message_to(7), v(3, 4)));
  EXPECT_FALSE(got.knows(message_to(8), v(3, 4)));
}

TEST(Knowledge, SizeBytesTracksContent) {
  Knowledge empty;
  Knowledge loaded;
  for (std::uint64_t i = 1; i <= 50; ++i) loaded.add_exact(v(i, 3));
  EXPECT_GT(loaded.size_bytes(), empty.size_bytes());
  EXPECT_EQ(loaded.weight(), 50u * 1u);
}

TEST(Knowledge, WeightCountsFragments) {
  Knowledge k;
  Knowledge source;
  source.add_exact(v(5, 2));
  k.merge_scoped(source, Filter::addresses({HostId(1)}));
  EXPECT_GE(k.weight(), 1u);
}

/// decode(encode(k)), the value the wire form must equal.
std::vector<std::uint8_t> exact_bytes_of_round_trip(const Knowledge& k) {
  ByteWriter w;
  k.serialize(w);
  ByteReader r(w.bytes());
  const Knowledge decoded = Knowledge::deserialize(r);
  ByteWriter exact;
  decoded.serialize_exact(exact);
  return exact.take();
}

std::vector<std::uint8_t> exact_bytes(const Knowledge& k) {
  ByteWriter w;
  k.serialize_exact(w);
  return w.take();
}

TEST(Knowledge, WireFormIsTheDecodedWireValue) {
  Knowledge k;
  k.add_exact_pinned(v(2, 1));  // a pinned extra the wire folds
  k.add_exact(v(2, 2));
  k.add_exact(v(3, 5));
  Knowledge peer;
  peer.add_exact(v(4, 1));
  peer.add_exact(v(4, 3));
  k.merge_scoped(peer, Filter::addresses({HostId(9)}));
  ASSERT_FALSE(k.fragments().empty());

  const auto form = k.wire_form();
  ASSERT_NE(form, nullptr);
  EXPECT_EQ(exact_bytes(*form), exact_bytes_of_round_trip(k));
  EXPECT_NE(exact_bytes(*form), exact_bytes(k));  // the fold happened
  ByteWriter w;
  k.serialize(w);
  EXPECT_EQ(k.size_bytes(), w.size());
  // Re-encoding the folded form is smaller than what was sent: byte
  // counts must come from size_bytes(), never from the form.
  ByteWriter fw;
  form->serialize(fw);
  EXPECT_LT(fw.size(), w.size());
}

TEST(Knowledge, WireCacheFollowsRevisions) {
  Knowledge k;
  k.add_exact(v(2, 1));
  const auto first = k.wire_form();
  const std::size_t first_size = k.size_bytes();
  const std::uint64_t first_digest = k.wire_digest();
  // Unchanged knowledge reuses the cached form.
  EXPECT_EQ(k.wire_form(), first);
  k.add_exact(v(2, 1));  // duplicate: no revision bump
  EXPECT_EQ(k.wire_form(), first);

  k.add_exact(v(7, 4));
  const auto second = k.wire_form();
  EXPECT_NE(second, first);
  EXPECT_EQ(exact_bytes(*second), exact_bytes_of_round_trip(k));
  EXPECT_GT(k.size_bytes(), first_size);
  EXPECT_NE(k.wire_digest(), first_digest);
  // A held form keeps the value it had when taken.
  EXPECT_TRUE(first->knows(message_to(1), v(2, 1)));
  EXPECT_FALSE(first->knows(message_to(1), v(7, 4)));

  // Forgetting is a change too.
  ASSERT_TRUE(k.forget_exact(v(7, 4)));
  EXPECT_EQ(k.size_bytes(), first_size);
  EXPECT_EQ(k.wire_digest(), first_digest);
  EXPECT_FALSE(k.wire_form()->knows(message_to(1), v(7, 4)));
}

TEST(Knowledge, CopiesShareAValidCache) {
  Knowledge k;
  k.add_exact(v(2, 3));
  const auto form = k.wire_form();
  Knowledge copy = k;
  EXPECT_EQ(copy.wire_form(), form);
  copy.add_exact(v(2, 4));
  EXPECT_NE(copy.wire_form(), form);
  EXPECT_EQ(k.wire_form(), form);
  EXPECT_EQ(exact_bytes(*copy.wire_form()), exact_bytes_of_round_trip(copy));
}

}  // namespace
}  // namespace pfrdtn::repl
