// Tests for the typed join keys: distinct multi-column keys that collide
// on the 64-bit key hash must still join correctly (equality, not the
// hash, decides matches), the hash join must agree with nested-loop
// on randomized ongoing relations, and every join algorithm must agree
// on NaN keys.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/join.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

// --- mirror of the typed key hash ------------------------------------------
// The collision construction below inverts the hash-combine chain, which
// requires knowing the combine formula. The mirror is asserted against
// JoinKeyHash first, so any drift in the implementation fails
// loudly here instead of silently weakening the collision test.

constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ULL;
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

uint64_t Combine(uint64_t seed, uint64_t h) {
  return seed ^ (h + kGolden + (seed << 6) + (seed >> 2));
}

uint64_t MirrorInt64ValueHash(int64_t v) {
  uint64_t tag_seed = std::hash<int64_t>{}(
      static_cast<int64_t>(ValueType::kInt64));
  return Combine(tag_seed, std::hash<int64_t>{}(v));
}

uint64_t MirrorKeyHash(const std::vector<int64_t>& key) {
  uint64_t h = kFnvSeed;
  for (int64_t v : key) h = Combine(h, MirrorInt64ValueHash(v));
  return h;
}

Tuple IntKeyTuple(const std::vector<int64_t>& key) {
  std::vector<Value> values;
  for (int64_t v : key) values.push_back(Value::Int64(v));
  return Tuple(std::move(values));
}

TEST(JoinKeyHashTest, MirrorMatchesImplementation) {
  std::vector<size_t> indices{0, 1};
  for (const std::vector<int64_t>& key :
       {std::vector<int64_t>{0, 0}, {1, 100}, {-7, 42},
        {kMinInfinity, kMaxInfinity}}) {
    EXPECT_EQ(JoinKeyHash(IntKeyTuple(key), indices),
              MirrorKeyHash(key))
        << "the key-hash mirror in this test has drifted from the "
           "implementation; update it together with ValueHash/KeyViewHash";
  }
}

// Solves the combine chain backwards for the second key column: returns d
// such that the two-column key (c, d) hashes to `target`. Requires
// std::hash<int64_t> to be invertible (it is the identity cast on the
// standard libraries we build against; the caller checks).
int64_t SolveSecondColumn(int64_t c, uint64_t target) {
  uint64_t h1 = Combine(kFnvSeed, MirrorInt64ValueHash(c));
  // Combine(h1, vh_d) == target  =>  vh_d:
  uint64_t vh_d = (h1 ^ target) - kGolden - (h1 << 6) - (h1 >> 2);
  // vh_d == Combine(tag_seed, std::hash(d))  =>  std::hash(d):
  uint64_t tag_seed = std::hash<int64_t>{}(
      static_cast<int64_t>(ValueType::kInt64));
  uint64_t hash_d = (tag_seed ^ vh_d) - kGolden - (tag_seed << 6) -
                    (tag_seed >> 2);
  return static_cast<int64_t>(hash_d);
}

std::multiset<std::string> Fingerprint(const OngoingRelation& r) {
  std::multiset<std::string> rows;
  for (const Tuple& t : r.tuples()) rows.insert(t.ToString());
  return rows;
}

TEST(JoinKeyHashTest, CollidingMultiColumnKeysStillJoinCorrectly) {
  if (std::hash<int64_t>{}(int64_t{123456789}) != 123456789ULL) {
    GTEST_SKIP() << "std::hash<int64_t> is not invertible on this platform; "
                    "collision construction unavailable";
  }
  std::vector<size_t> indices{0, 1};
  const std::vector<int64_t> key1{1, 100};
  const int64_t d = SolveSecondColumn(2, MirrorKeyHash(key1));
  const std::vector<int64_t> key2{2, d};
  ASSERT_NE(key1, key2);
  ASSERT_EQ(JoinKeyHash(IntKeyTuple(key1), indices),
            JoinKeyHash(IntKeyTuple(key2), indices))
      << "constructed keys do not collide";

  Schema schema({{"K1", ValueType::kInt64},
                 {"K2", ValueType::kInt64},
                 {"P", ValueType::kString}});
  OngoingRelation left(schema), right(schema);
  ASSERT_TRUE(left.Insert({Value::Int64(key1[0]), Value::Int64(key1[1]),
                           Value::String("l1")})
                  .ok());
  ASSERT_TRUE(left.Insert({Value::Int64(key2[0]), Value::Int64(key2[1]),
                           Value::String("l2")})
                  .ok());
  ASSERT_TRUE(right.Insert({Value::Int64(key1[0]), Value::Int64(key1[1]),
                            Value::String("r1")})
                  .ok());
  ASSERT_TRUE(right.Insert({Value::Int64(key2[0]), Value::Int64(key2[1]),
                            Value::String("r2")})
                  .ok());

  ExprPtr pred = And(Eq(Col("L.K1"), Col("R.K1")),
                     Eq(Col("L.K2"), Col("R.K2")));
  auto hash = HashJoin(left, right, pred, "L", "R");
  auto nl = NestedLoopJoin(left, right, pred, "L", "R");
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(nl.ok());
  // Each key matches only itself: the colliding-but-unequal keys must not
  // cross-join.
  EXPECT_EQ(hash->size(), 2u);
  EXPECT_EQ(Fingerprint(*hash), Fingerprint(*nl));
}

TEST(JoinKeyHashTest, ManyCollidingKeysAgainstNestedLoop) {
  if (std::hash<int64_t>{}(int64_t{123456789}) != 123456789ULL) {
    GTEST_SKIP() << "std::hash<int64_t> is not invertible on this platform";
  }
  // A whole family of distinct two-column keys sharing one hash bucket
  // chain: every probe has to walk colliding entries and reject them via
  // typed equality.
  const uint64_t target = MirrorKeyHash({0, 0});
  Schema schema({{"K1", ValueType::kInt64}, {"K2", ValueType::kInt64}});
  OngoingRelation left(schema), right(schema);
  for (int64_t c = 0; c < 16; ++c) {
    const int64_t d = SolveSecondColumn(c, target);
    ASSERT_TRUE(left.Insert({Value::Int64(c), Value::Int64(d)}).ok());
    ASSERT_TRUE(right.Insert({Value::Int64(c), Value::Int64(d)}).ok());
    // A near-miss row that shares K1 but not K2.
    ASSERT_TRUE(right.Insert({Value::Int64(c), Value::Int64(d + 1)}).ok());
  }
  ExprPtr pred = And(Eq(Col("L.K1"), Col("R.K1")),
                     Eq(Col("L.K2"), Col("R.K2")));
  auto hash = HashJoin(left, right, pred, "L", "R");
  auto nl = NestedLoopJoin(left, right, pred, "L", "R");
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(hash->size(), 16u);
  EXPECT_EQ(Fingerprint(*hash), Fingerprint(*nl));
}

// --- randomized equivalence -------------------------------------------------

OngoingRelation RandomRelation(uint64_t seed, size_t n) {
  Rng rng(seed);
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"K", ValueType::kInt64},
                            {"NAME", ValueType::kString},
                            {"VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < n; ++i) {
    OngoingInterval vt;
    if (rng.Bernoulli(0.3)) {
      vt = OngoingInterval::SinceUntilNow(rng.Uniform(0, 100));
    } else {
      TimePoint s = rng.Uniform(0, 100);
      vt = OngoingInterval::Fixed(s, s + rng.Uniform(1, 30));
    }
    EXPECT_TRUE(r.Insert({Value::Int64(static_cast<int64_t>(i)),
                          Value::Int64(rng.Uniform(0, 7)),
                          Value::String(rng.String(3)),
                          Value::Ongoing(vt)})
                    .ok());
  }
  return r;
}

class JoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalenceTest, HashMatchesNestedLoop) {
  OngoingRelation left = RandomRelation(GetParam() * 2 + 1, 35);
  OngoingRelation right = RandomRelation(GetParam() * 2 + 2, 25);
  ExprPtr pred = And(Eq(Col("L.K"), Col("R.K")),
                     OverlapsExpr(Col("L.VT"), Col("R.VT")));
  auto nl = NestedLoopJoin(left, right, pred, "L", "R");
  auto hash = HashJoin(left, right, pred, "L", "R");
  ASSERT_TRUE(nl.ok());
  ASSERT_TRUE(hash.ok());
  std::multiset<std::string> expected = Fingerprint(*nl);
  EXPECT_EQ(Fingerprint(*hash), expected);
}

TEST_P(JoinEquivalenceTest, MultiColumnStringKeysMatchNestedLoop) {
  // String + int composite keys: the typed path must agree with
  // nested-loop without ever formatting a key string.
  Rng rng(GetParam() * 31 + 7);
  Schema schema({{"CITY", ValueType::kString},
                 {"K", ValueType::kInt64},
                 {"VT", ValueType::kOngoingInterval}});
  auto make = [&](size_t n) {
    OngoingRelation r(schema);
    for (size_t i = 0; i < n; ++i) {
      TimePoint s = rng.Uniform(0, 60);
      EXPECT_TRUE(
          r.Insert({Value::String(rng.Bernoulli(0.5) ? "basel" : "zurich"),
                    Value::Int64(rng.Uniform(0, 3)),
                    Value::Ongoing(OngoingInterval::Fixed(
                        s, s + rng.Uniform(1, 40)))})
              .ok());
    }
    return r;
  };
  OngoingRelation left = make(20), right = make(20);
  ExprPtr pred =
      And(Eq(Col("L.CITY"), Col("R.CITY")),
          And(Eq(Col("L.K"), Col("R.K")),
              OverlapsExpr(Col("L.VT"), Col("R.VT"))));
  auto nl = NestedLoopJoin(left, right, pred, "L", "R");
  auto hash = HashJoin(left, right, pred, "L", "R");
  ASSERT_TRUE(nl.ok());
  ASSERT_TRUE(hash.ok());
  std::multiset<std::string> expected = Fingerprint(*nl);
  EXPECT_EQ(Fingerprint(*hash), expected);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, JoinEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 25));

// The hash join groups keys by ValueCompare, which orders NaN equal to
// itself; the nested-loop join tests `A.X = B.X` as a fixed DOUBLE
// comparison, which must use that same order. Each side holds {NaN,
// 1.0}, so every algorithm, serial or on 4 workers, joins NaN with NaN
// and 1.0 with 1.0, and a filter `X = X` keeps the NaN row.
TEST(JoinKeyNaNTest, EveryAlgorithmJoinsNaNKeysAlike) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Schema schema(
      {{"X", ValueType::kDouble}, {"VT", ValueType::kOngoingInterval}});
  auto make = [&] {
    OngoingRelation r(schema);
    for (double x : {nan, 1.0}) {
      EXPECT_TRUE(r.Insert({Value::Double(x), Value::Ongoing(
                                                  OngoingInterval::Fixed(
                                                      0, 10))})
                      .ok());
    }
    return r;
  };
  const OngoingRelation a = make(), b = make();
  const ExprPtr pred = Eq(Col("A.X"), Col("B.X"));
  ParallelOptions four;
  four.workers = 4;
  four.morsel_size = 1;
  four.min_parallel_tuples = 0;
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kHash, JoinAlgorithm::kNestedLoop,
        JoinAlgorithm::kAuto}) {
    const PlanPtr plan =
        Join(Scan(&a, "A"), Scan(&b, "B"), pred, "A", "B", algorithm);
    for (const ParallelOptions& options : {ParallelOptions{}, four}) {
      SCOPED_TRACE(::testing::Message()
                   << "algorithm " << static_cast<int>(algorithm)
                   << " workers " << options.workers);
      Result<OngoingRelation> got = Execute(plan, options);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->size(), 2u);
      size_t nan_rows = 0;
      for (const Tuple& t : got->tuples()) {
        nan_rows += std::isnan(t.value(0).AsDouble()) &&
                    std::isnan(t.value(2).AsDouble());
      }
      EXPECT_EQ(nan_rows, 1u);
      Result<OngoingRelation> at = ExecuteAtReferenceTime(plan, 5, options);
      ASSERT_TRUE(at.ok()) << at.status();
      EXPECT_EQ(at->size(), 2u);
    }
  }
  const PlanPtr self = Filter(Scan(&a, "A"), Eq(Col("X"), Col("X")));
  Result<OngoingRelation> kept = Execute(self);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->size(), 2u);
  Result<OngoingRelation> kept_at = ExecuteAtReferenceTime(self, 5);
  ASSERT_TRUE(kept_at.ok()) << kept_at.status();
  EXPECT_EQ(kept_at->size(), 2u);
}

}  // namespace
}  // namespace ongoingdb
