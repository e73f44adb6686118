// Tests for InlineVector (the small-buffer storage behind IntervalSet):
// spill/unspill round-trips, move semantics, allocation behavior, and an
// equivalence property test of the small-buffer IntervalSet against a
// reference built on plain std::vector semantics.
#include "util/inline_vector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/interval_set.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

TEST(InlineVectorTest, StartsInlineAndEmpty) {
  InlineVector<int, 2> v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 2u);
}

TEST(InlineVectorTest, PushWithinInlineCapacityDoesNotAllocate) {
  AllocScope scope;
  InlineVector<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(scope.count(), 0u);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
}

TEST(InlineVectorTest, SpillRoundTrip) {
  InlineVector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);

  // clear() keeps the spilled buffer so refills reuse capacity.
  size_t spilled_capacity = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), spilled_capacity);
  {
    AllocScope scope;
    for (int i = 0; i < 100; ++i) v.push_back(2 * i);
    EXPECT_EQ(scope.count(), 0u) << "refill after clear() must reuse capacity";
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], 2 * i);
}

TEST(InlineVectorTest, SpillPreservesElementsAcrossGrowth) {
  InlineVector<std::string, 2> v;
  for (int i = 0; i < 20; ++i) v.push_back("value-" + std::to_string(i));
  ASSERT_EQ(v.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(v[i], "value-" + std::to_string(i));
  }
}

TEST(InlineVectorTest, MoveOfInlineVectorMovesElements) {
  InlineVector<std::string, 4> a;
  a.push_back("alpha");
  a.push_back("beta");
  InlineVector<std::string, 4> b(std::move(a));
  EXPECT_TRUE(b.is_inline());
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], "alpha");
  EXPECT_EQ(b[1], "beta");
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): defined state
}

TEST(InlineVectorTest, MoveOfSpilledVectorStealsBufferWithoutAllocating) {
  InlineVector<int, 2> a;
  for (int i = 0; i < 50; ++i) a.push_back(i);
  ASSERT_FALSE(a.is_inline());
  const int* heap_data = a.data();
  AllocScope scope;
  InlineVector<int, 2> b(std::move(a));
  EXPECT_EQ(scope.count(), 0u);
  EXPECT_EQ(b.data(), heap_data) << "move must steal the heap buffer";
  ASSERT_EQ(b.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(b[i], i);
  // The moved-from vector unspills back to its inline buffer and is
  // immediately usable.
  EXPECT_TRUE(a.is_inline());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.empty());
  a.push_back(7);
  EXPECT_EQ(a[0], 7);
}

TEST(InlineVectorTest, MoveAssignmentReleasesOldContents) {
  InlineVector<std::string, 2> a;
  for (int i = 0; i < 10; ++i) a.push_back("a" + std::to_string(i));
  InlineVector<std::string, 2> b;
  for (int i = 0; i < 10; ++i) b.push_back("b" + std::to_string(i));
  b = std::move(a);
  ASSERT_EQ(b.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(b[i], "a" + std::to_string(i));
}

TEST(InlineVectorTest, CopySemantics) {
  InlineVector<std::string, 2> a;
  a.push_back("one");
  InlineVector<std::string, 2> b(a);
  EXPECT_EQ(a, b);
  b.push_back("two");
  EXPECT_FALSE(a == b);
  a = b;
  EXPECT_EQ(a, b);
  // Self-assignment is a no-op.
  a = *&a;
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[1], "two");
}

TEST(InlineVectorTest, PushBackOfOwnElementSurvivesGrowth) {
  // std::vector guarantees v.push_back(v[0]) works even when it
  // reallocates; the small-buffer growth path must too.
  InlineVector<std::string, 2> v;
  v.push_back("first-element-long-enough-to-defeat-sso");
  v.push_back("second");
  ASSERT_EQ(v.size(), v.capacity());
  v.push_back(v[0]);  // grows: argument aliases the old buffer
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], "first-element-long-enough-to-defeat-sso");
  EXPECT_EQ(v[0], v[2]);
}

TEST(InlineVectorTest, PopBackAndClear) {
  InlineVector<int, 2> v{1, 2, 3};
  EXPECT_FALSE(v.is_inline());
  v.pop_back();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
  v.clear();
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Equivalence of the small-buffer IntervalSet with reference vector-backed
// set semantics on randomized interval sets: the storage change must be
// invisible to every set operation.
// ---------------------------------------------------------------------------

class SmallBufferEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

IntervalSet RandomSet(Rng& rng) {
  std::vector<FixedInterval> ivs;
  const int n = static_cast<int>(rng.Uniform(0, 6));
  for (int i = 0; i < n; ++i) {
    TimePoint s = rng.Uniform(-50, 50);
    ivs.push_back({s, s + rng.Uniform(0, 20)});
  }
  return IntervalSet::FromUnsorted(std::move(ivs));
}

// Reference membership on the raw sorted vector representation.
bool ReferenceContains(const std::vector<FixedInterval>& ivs, TimePoint t) {
  for (const FixedInterval& iv : ivs) {
    if (iv.Contains(t)) return true;
  }
  return false;
}

std::vector<FixedInterval> ToVector(const IntervalSet& s) {
  return std::vector<FixedInterval>(s.intervals().begin(),
                                    s.intervals().end());
}

TEST_P(SmallBufferEquivalenceTest, MatchesVectorBackedBehavior) {
  Rng rng(GetParam() * 6364136223846793005ULL + 11);
  IntervalSet a = RandomSet(rng);
  IntervalSet b = RandomSet(rng);
  std::vector<FixedInterval> va = ToVector(a), vb = ToVector(b);

  // The representation invariant holds regardless of spill state.
  EXPECT_TRUE(IntervalSet::IsNormalized(va.data(), va.size()));

  IntervalSet inter = a.Intersect(b);
  IntervalSet uni = a.Union(b);
  IntervalSet diff = a.Difference(b);
  // The old implementation computed difference as Intersect(Complement());
  // the direct sweep must agree exactly.
  IntervalSet diff_reference = a.Intersect(b.Complement());
  EXPECT_EQ(diff, diff_reference);

  for (TimePoint t = -80; t <= 80; ++t) {
    const bool in_a = ReferenceContains(va, t);
    const bool in_b = ReferenceContains(vb, t);
    EXPECT_EQ(a.Contains(t), in_a) << t;
    EXPECT_EQ(inter.Contains(t), in_a && in_b) << t;
    EXPECT_EQ(uni.Contains(t), in_a || in_b) << t;
    EXPECT_EQ(diff.Contains(t), in_a && !in_b) << t;
  }

  // Round-trip through the checked FromNormalized reproduces the set.
  const std::vector<FixedInterval> vu = ToVector(uni);
  EXPECT_EQ(IntervalSet::FromNormalized(vu.data(), vu.size()), uni);

  // Destination-passing variants agree with the allocating versions and
  // survive destination reuse (including a previously spilled one).
  IntervalSet scratch = IntervalSet::FromUnsorted(
      {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}});
  a.IntersectInto(b, &scratch);
  EXPECT_EQ(scratch, inter);
  a.UnionInto(b, &scratch);
  EXPECT_EQ(scratch, uni);
  a.DifferenceInto(b, &scratch);
  EXPECT_EQ(scratch, diff);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SmallBufferEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 60));

}  // namespace
}  // namespace ongoingdb
