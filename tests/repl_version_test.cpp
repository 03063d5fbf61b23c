#include "repl/version.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace pfrdtn::repl {
namespace {

Version v(std::uint64_t author, std::uint64_t counter,
          std::uint64_t revision = 1) {
  return Version{ReplicaId(author), counter, revision};
}

TEST(Version, ValidityRules) {
  EXPECT_FALSE(Version{}.valid());
  EXPECT_FALSE(v(1, 0).valid());
  EXPECT_TRUE(v(1, 1).valid());
}

TEST(Version, DominanceByRevision) {
  EXPECT_TRUE(v(1, 5, 2).dominates(v(2, 9, 1)));
  EXPECT_FALSE(v(2, 9, 1).dominates(v(1, 5, 2)));
}

TEST(Version, DominanceTieBrokenByAuthor) {
  EXPECT_TRUE(v(3, 1, 2).dominates(v(2, 7, 2)));
  EXPECT_FALSE(v(2, 7, 2).dominates(v(3, 1, 2)));
  EXPECT_FALSE(v(2, 7, 2).dominates(v(2, 7, 2)));  // never self
}

TEST(Version, SameEventIgnoresRevision) {
  EXPECT_TRUE(v(1, 4, 1).same_event(v(1, 4, 9)));
  EXPECT_FALSE(v(1, 4).same_event(v(1, 5)));
  EXPECT_FALSE(v(1, 4).same_event(v(2, 4)));
}

TEST(Version, WireRoundTrip) {
  ByteWriter w;
  v(7, 123, 4).serialize(w);
  ByteReader r(w.bytes());
  const Version got = Version::deserialize(r);
  EXPECT_EQ(got, v(7, 123, 4));
}

TEST(VersionVector, IncludesAfterExtend) {
  VersionVector vv;
  EXPECT_FALSE(vv.includes(ReplicaId(1), 1));
  vv.extend(ReplicaId(1), 3);
  EXPECT_TRUE(vv.includes(ReplicaId(1), 1));
  EXPECT_TRUE(vv.includes(ReplicaId(1), 3));
  EXPECT_FALSE(vv.includes(ReplicaId(1), 4));
  EXPECT_FALSE(vv.includes(ReplicaId(2), 1));
}

TEST(VersionVector, ExtendNeverLowers) {
  VersionVector vv;
  vv.extend(ReplicaId(1), 5);
  vv.extend(ReplicaId(1), 2);
  EXPECT_EQ(vv.max_counter(ReplicaId(1)), 5u);
}

TEST(VersionVector, MergeIsPointwiseMax) {
  VersionVector a, b;
  a.extend(ReplicaId(1), 3);
  a.extend(ReplicaId(2), 1);
  b.extend(ReplicaId(1), 2);
  b.extend(ReplicaId(3), 7);
  a.merge(b);
  EXPECT_EQ(a.max_counter(ReplicaId(1)), 3u);
  EXPECT_EQ(a.max_counter(ReplicaId(2)), 1u);
  EXPECT_EQ(a.max_counter(ReplicaId(3)), 7u);
}

TEST(VersionVector, Covers) {
  VersionVector a, b;
  a.extend(ReplicaId(1), 3);
  b.extend(ReplicaId(1), 2);
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  b.extend(ReplicaId(2), 1);
  EXPECT_FALSE(a.covers(b));
  VersionVector empty;
  EXPECT_TRUE(a.covers(empty));
}

TEST(VersionVector, WireRoundTrip) {
  VersionVector vv;
  vv.extend(ReplicaId(1), 3);
  vv.extend(ReplicaId(9), 100);
  ByteWriter w;
  vv.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(VersionVector::deserialize(r), vv);
}

TEST(VersionSet, CompactsContiguousPrefix) {
  VersionSet vs;
  vs.add(ReplicaId(1), 2);
  EXPECT_EQ(vs.extras_count(), 1u);
  vs.add(ReplicaId(1), 1);
  // 1,2 fold into the vector.
  EXPECT_EQ(vs.extras_count(), 0u);
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 2u);
  EXPECT_TRUE(vs.contains(ReplicaId(1), 1));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 2));
  EXPECT_FALSE(vs.contains(ReplicaId(1), 3));
}

TEST(VersionSet, GapBlocksCompaction) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1);
  vs.add(ReplicaId(1), 3);
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 1u);
  EXPECT_EQ(vs.extras_count(), 1u);
  vs.add(ReplicaId(1), 2);  // fills the gap; 1..3 fold
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 3u);
  EXPECT_EQ(vs.extras_count(), 0u);
}

TEST(VersionSet, PinnedNeverFolds) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  vs.add(ReplicaId(1), 2);
  // Pinned 1 blocks the fold of 2 as well.
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 0u);
  EXPECT_TRUE(vs.contains(ReplicaId(1), 1));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 2));
}

TEST(VersionSet, RemovePinnedExtraMakesUnknown) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  EXPECT_TRUE(vs.remove_extra(ReplicaId(1), 1));
  EXPECT_FALSE(vs.contains(ReplicaId(1), 1));
  EXPECT_FALSE(vs.remove_extra(ReplicaId(1), 1));  // already gone
}

TEST(VersionSet, FoldedEventCannotBeRemoved) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1);
  EXPECT_FALSE(vs.remove_extra(ReplicaId(1), 1));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 1));
}

TEST(VersionSet, UnpinAllowsFolding) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  vs.add(ReplicaId(1), 2);
  vs.unpin(ReplicaId(1), 1);
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 2u);
  EXPECT_EQ(vs.extras_count(), 0u);
}

TEST(VersionSet, PinMovesExtraBack) {
  VersionSet vs;
  vs.add(ReplicaId(1), 2);  // extra (gap at 1)
  EXPECT_TRUE(vs.pin(ReplicaId(1), 2));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 2));
  EXPECT_TRUE(vs.remove_extra(ReplicaId(1), 2));
}

TEST(VersionSet, PinFailsForFoldedEvent) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1);
  EXPECT_FALSE(vs.pin(ReplicaId(1), 1));
}

TEST(VersionSet, MergeUnionsAndCompacts) {
  VersionSet a, b;
  a.add(ReplicaId(1), 1);
  b.add(ReplicaId(1), 2);
  b.add(ReplicaId(2), 5);
  a.merge(b);
  EXPECT_TRUE(a.contains(ReplicaId(1), 1));
  EXPECT_TRUE(a.contains(ReplicaId(1), 2));
  EXPECT_TRUE(a.contains(ReplicaId(2), 5));
  EXPECT_EQ(a.vector_part().max_counter(ReplicaId(1)), 2u);
}

TEST(VersionSet, MergeTreatsPinnedAsPlain) {
  VersionSet a, b;
  b.add(ReplicaId(1), 1, /*pinned=*/true);
  a.merge(b);
  // In `a` the event is a plain extra, so it folds.
  EXPECT_EQ(a.vector_part().max_counter(ReplicaId(1)), 1u);
}

TEST(VersionSet, ContainsAll) {
  VersionSet a, b;
  a.add(ReplicaId(1), 1);
  a.add(ReplicaId(1), 2);
  a.add(ReplicaId(2), 4);
  b.add(ReplicaId(1), 2);
  EXPECT_TRUE(a.contains_all(b));
  b.add(ReplicaId(3), 1);
  EXPECT_FALSE(a.contains_all(b));
  VersionSet empty;
  EXPECT_TRUE(a.contains_all(empty));
  EXPECT_FALSE(empty.contains_all(a));
}

TEST(VersionSet, WireRoundTripFlattensPinning) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  vs.add(ReplicaId(1), 3);
  vs.add(ReplicaId(2), 1);
  ByteWriter w;
  vs.serialize(w);
  ByteReader r(w.bytes());
  const VersionSet got = VersionSet::deserialize(r);
  // Membership identical...
  EXPECT_TRUE(got.contains(ReplicaId(1), 1));
  EXPECT_TRUE(got.contains(ReplicaId(1), 3));
  EXPECT_TRUE(got.contains(ReplicaId(2), 1));
  EXPECT_FALSE(got.contains(ReplicaId(1), 2));
  // ...but the deserialized copy compacts (1 folds; 3 stays an extra).
  EXPECT_EQ(got.vector_part().max_counter(ReplicaId(1)), 1u);
}

TEST(VersionSet, WireEncodingMergesPinnedAndPlainExtras) {
  // Pinned and plain extras interleave within one author and sit alone
  // under others; the wire carries one ascending, delta-encoded group
  // per author of either kind.
  VersionSet vs;
  vs.add_prefix(ReplicaId(1), 2);
  vs.add(ReplicaId(1), 4, /*pinned=*/true);
  vs.add(ReplicaId(1), 6);
  vs.add(ReplicaId(1), 9, /*pinned=*/true);
  vs.add(ReplicaId(2), 5);
  vs.add(ReplicaId(3), 8, /*pinned=*/true);
  ByteWriter got;
  vs.serialize(got);

  ByteWriter want;
  want.uvarint(1);  // vector: one entry
  want.uvarint(1);
  want.uvarint(2);
  want.uvarint(3);  // extras: three authors
  want.uvarint(1);  // author 1: 4, 6, 9
  want.uvarint(3);
  want.uvarint(4);
  want.uvarint(2);
  want.uvarint(3);
  want.uvarint(2);  // author 2: 5
  want.uvarint(1);
  want.uvarint(5);
  want.uvarint(3);  // author 3: 8
  want.uvarint(1);
  want.uvarint(8);
  EXPECT_EQ(got.bytes(), want.bytes());
}

/// Property: VersionSet must agree with a naive std::set oracle under
/// random interleavings of add / add-pinned / remove / unpin / merge.
class VersionSetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionSetPropertyTest, AgreesWithNaiveOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  VersionSet vs;
  std::set<std::pair<std::uint64_t, std::uint64_t>> oracle;
  constexpr std::uint64_t kAuthors = 4;
  constexpr std::uint64_t kCounters = 12;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t author = 1 + rng.below(kAuthors);
    const std::uint64_t counter = 1 + rng.below(kCounters);
    switch (rng.below(4)) {
      case 0:
        vs.add(ReplicaId(author), counter, /*pinned=*/false);
        oracle.emplace(author, counter);
        break;
      case 1:
        vs.add(ReplicaId(author), counter, /*pinned=*/true);
        oracle.emplace(author, counter);
        break;
      case 2:
        if (vs.remove_extra(ReplicaId(author), counter))
          oracle.erase({author, counter});
        break;
      case 3:
        vs.unpin(ReplicaId(author), counter);
        break;
    }
    // Full membership agreement after every step.
    for (std::uint64_t a = 1; a <= kAuthors; ++a) {
      for (std::uint64_t c = 1; c <= kCounters; ++c) {
        ASSERT_EQ(vs.contains(ReplicaId(a), c), oracle.count({a, c}) > 0)
            << "step " << step << " author " << a << " counter " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionSetPropertyTest,
                         ::testing::Range(0, 12));

/// Property: merge equals set union.
class VersionSetMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionSetMergeTest, MergeIsUnion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  VersionSet a, b;
  std::set<std::pair<std::uint64_t, std::uint64_t>> ua, ub;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t author = 1 + rng.below(3);
    const std::uint64_t counter = 1 + rng.below(20);
    if (rng.chance(0.5)) {
      a.add(ReplicaId(author), counter, rng.chance(0.3));
      ua.emplace(author, counter);
    } else {
      b.add(ReplicaId(author), counter, rng.chance(0.3));
      ub.emplace(author, counter);
    }
  }
  a.merge(b);
  for (std::uint64_t author = 1; author <= 3; ++author) {
    for (std::uint64_t counter = 1; counter <= 20; ++counter) {
      const bool expected = ua.count({author, counter}) > 0 ||
                            ub.count({author, counter}) > 0;
      ASSERT_EQ(a.contains(ReplicaId(author), counter), expected);
    }
  }
  EXPECT_TRUE(a.contains_all(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionSetMergeTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace pfrdtn::repl
