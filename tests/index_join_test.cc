// Tests of the index-nested-loop join (JoinAlgorithm::kIndexNL): the
// lowering (MatchIndexJoin eligibility, forced-path errors, the
// cost-based kAuto gate) and randomized equivalence — index-NL must
// produce the same tuple multiset as hash and scan-nested-loop joins
// and as the shared harness's reference evaluator, across
// overlaps/before/meets conjuncts in both orientations, ongoing + fixed
// interval columns, both execution modes, and workers 1/2/4 (shared
// harness: tests/testing/plan_fuzz.h; failures print their fuzz seed,
// replay with ONGOINGDB_TEST_SEED=<seed>). Also covers the inner-index
// cache across MaterializedView::Refresh() and the empty /
// all-overlapping inner edge cases.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/materialized_view.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "relation/modifications.h"
#include "testing/plan_fuzz.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeMixedRelation;
using plan_fuzz::ReferenceExecute;
using plan_fuzz::ReferenceExecuteAt;

// A temporal join over the two mixed relations: outer column `oc` of A,
// inner column `ic` of B, conjunct orientation chosen by
// `outer_on_left`.
PlanPtr TemporalJoin(const OngoingRelation* outer, const OngoingRelation* inner,
                     AllenOp op, const std::string& outer_column,
                     const std::string& inner_column, bool outer_on_left,
                     JoinAlgorithm algorithm,
                     ExprPtr extra_conjunct = nullptr) {
  ExprPtr pred = outer_on_left
                     ? Allen(op, Col(outer_column), Col(inner_column))
                     : Allen(op, Col(inner_column), Col(outer_column));
  if (extra_conjunct != nullptr) pred = And(std::move(pred), extra_conjunct);
  return Join(Scan(outer, "A"), Scan(inner, "B"), std::move(pred), "L", "R",
              algorithm);
}

TEST(IndexJoinLoweringTest, EligibleTemporalJoinsLowerToIndexJoin) {
  OngoingRelation a = MakeMixedRelation(1, "A_", 16);
  OngoingRelation b = MakeMixedRelation(2, "B_", 16);
  for (AllenOp op : {AllenOp::kOverlaps, AllenOp::kBefore, AllenOp::kMeets}) {
    for (bool outer_on_left : {true, false}) {
      for (const char* inner_column : {"B_VT", "B_FT"}) {
        PlanPtr plan = TemporalJoin(&a, &b, op, "A_VT", inner_column,
                                    outer_on_left, JoinAlgorithm::kIndexNL);
        auto compiled = Compile(plan, ExecMode::kOngoing);
        ASSERT_TRUE(compiled.ok()) << compiled.status();
        EXPECT_STREQ((*compiled)->Name(), "IndexJoin")
            << "op=" << static_cast<int>(op)
            << " outer_on_left=" << outer_on_left
            << " inner_column=" << inner_column;
        auto compiled_at = Compile(plan, ExecMode::kAtReferenceTime, 50);
        ASSERT_TRUE(compiled_at.ok());
        EXPECT_STREQ((*compiled_at)->Name(), "IndexJoin");
      }
    }
  }
  // An equality conjunct riding along stays in the residual; the join is
  // still index-backed when forced.
  PlanPtr with_key = TemporalJoin(&a, &b, AllenOp::kOverlaps, "A_VT", "B_VT",
                                  true, JoinAlgorithm::kIndexNL,
                                  Eq(Col("A_ID"), Col("B_ID")));
  auto compiled = Compile(with_key, ExecMode::kOngoing);
  ASSERT_TRUE(compiled.ok());
  EXPECT_STREQ((*compiled)->Name(), "IndexJoin");
}

TEST(IndexJoinLoweringTest, ForcedIndexNLOnIneligibleJoinsIsACompileError) {
  OngoingRelation a = MakeMixedRelation(3, "A_", 16);
  OngoingRelation b = MakeMixedRelation(4, "B_", 16);
  // No temporal conjunct between the sides.
  PlanPtr equi_only = Join(Scan(&a, "A"), Scan(&b, "B"),
                           Eq(Col("A_ID"), Col("B_ID")), "L", "R",
                           JoinAlgorithm::kIndexNL);
  EXPECT_FALSE(Compile(equi_only, ExecMode::kOngoing).ok());
  EXPECT_FALSE(Execute(equi_only).ok());
  // An unsupported Allen operator.
  PlanPtr during = Join(Scan(&a, "A"), Scan(&b, "B"),
                        Allen(AllenOp::kDuring, Col("A_VT"), Col("B_VT")),
                        "L", "R", JoinAlgorithm::kIndexNL);
  EXPECT_FALSE(Compile(during, ExecMode::kOngoing).ok());
  // The inner (right) input must be a bare base-relation scan.
  PlanPtr filtered_inner =
      Join(Scan(&a, "A"),
           Filter(Scan(&b, "B"), Lt(Col("B_ID"), Lit(int64_t{8}))),
           OverlapsExpr(Col("A_VT"), Col("B_VT")), "L", "R",
           JoinAlgorithm::kIndexNL);
  EXPECT_FALSE(Compile(filtered_inner, ExecMode::kOngoing).ok());
  // Column-vs-literal temporal conjuncts belong to the selection
  // matcher, not the join matcher.
  PlanPtr vs_literal = Join(Scan(&a, "A"), Scan(&b, "B"),
                            OverlapsExpr(Col("A_VT"),
                                         Lit(OngoingInterval::Fixed(40, 60))),
                            "L", "R", JoinAlgorithm::kIndexNL);
  EXPECT_FALSE(Compile(vs_literal, ExecMode::kOngoing).ok());
}

class IndexJoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// Index-NL == hash == scan-NL == reference: randomized over ops,
// orientations, interval columns, a residual equality conjunct, both
// modes, and workers 1/2/4. kAuto rides along — with histograms it must
// never pick a path that loses the forced-path equivalences.
TEST_P(IndexJoinEquivalenceTest, IndexNLMatchesHashAndScanNL) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed * 6151 + 3);
  OngoingRelation a = MakeMixedRelation(seed * 2 + 1, "A_", 60);
  OngoingRelation b = MakeMixedRelation(seed * 2 + 2, "B_", 60);
  for (int trial = 0; trial < 4; ++trial) {
    const AllenOp ops[] = {AllenOp::kOverlaps, AllenOp::kBefore,
                           AllenOp::kMeets};
    const AllenOp op = ops[rng.Uniform(0, 2)];
    const bool outer_on_left = rng.Bernoulli(0.5);
    const std::string outer_column = rng.Bernoulli(0.5) ? "A_VT" : "A_FT";
    const std::string inner_column = rng.Bernoulli(0.5) ? "B_VT" : "B_FT";
    ExprPtr extra = rng.Bernoulli(0.5) ? Eq(Col("A_ID"), Col("B_ID"))
                                       : nullptr;
    auto plan_with = [&](JoinAlgorithm algorithm) {
      return TemporalJoin(&a, &b, op, outer_column, inner_column,
                          outer_on_left, algorithm, extra);
    };

    auto reference = ReferenceExecute(plan_with(JoinAlgorithm::kAuto));
    ASSERT_TRUE(reference.ok()) << reference.status();
    const std::multiset<std::string> expected = Fingerprint(*reference);

    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kIndexNL, JoinAlgorithm::kNestedLoop,
          JoinAlgorithm::kHash, JoinAlgorithm::kAuto}) {
      PlanPtr plan = plan_with(algorithm);
      auto serial = Execute(plan);
      ASSERT_TRUE(serial.ok()) << serial.status();
      EXPECT_EQ(Fingerprint(*serial), expected)
          << "ongoing serial, algorithm " << static_cast<int>(algorithm)
          << " op=" << static_cast<int>(op)
          << " outer_on_left=" << outer_on_left;
      for (size_t workers : {size_t{2}, size_t{4}}) {
        auto parallel = Execute(plan, ForcedParallel(workers, 16));
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        EXPECT_EQ(Fingerprint(*parallel), expected)
            << "ongoing workers=" << workers << ", algorithm "
            << static_cast<int>(algorithm);
      }
      for (TimePoint rt : {TimePoint{15}, TimePoint{140}}) {
        auto reference_at =
            ReferenceExecuteAt(plan_with(JoinAlgorithm::kAuto), rt);
        ASSERT_TRUE(reference_at.ok());
        auto at = ExecuteAtReferenceTime(plan, rt);
        ASSERT_TRUE(at.ok()) << at.status();
        EXPECT_EQ(Fingerprint(*at), Fingerprint(*reference_at))
            << "clifford rt=" << rt << ", algorithm "
            << static_cast<int>(algorithm);
        auto at_parallel =
            ExecuteAtReferenceTime(plan, rt, ForcedParallel(4, 16));
        ASSERT_TRUE(at_parallel.ok()) << at_parallel.status();
        EXPECT_EQ(Fingerprint(*at_parallel), Fingerprint(*reference_at))
            << "clifford parallel rt=" << rt << ", algorithm "
            << static_cast<int>(algorithm);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IndexJoinEquivalenceTest,
                         ::testing::ValuesIn(FuzzSeeds(10)));

TEST(IndexJoinEdgeCaseTest, EmptyInnerAndEmptyOuter) {
  OngoingRelation a = MakeMixedRelation(11, "A_", 30);
  OngoingRelation b = MakeMixedRelation(12, "B_", 30);
  // Empty inner: the index is built over zero entries; every probe
  // returns no candidates.
  OngoingRelation empty_b(b.schema());
  PlanPtr empty_inner = Join(Scan(&a, "A"), Scan(&empty_b, "E"),
                             OverlapsExpr(Col("A_VT"), Col("B_VT")), "L", "R",
                             JoinAlgorithm::kIndexNL);
  auto r1 = Execute(empty_inner);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->size(), 0u);
  auto r1p = Execute(empty_inner, ForcedParallel(4, 8));
  ASSERT_TRUE(r1p.ok());
  EXPECT_EQ(r1p->size(), 0u);
  // Empty outer: the probe loop never runs.
  OngoingRelation empty_a(a.schema());
  PlanPtr empty_outer = Join(Scan(&empty_a, "E"), Scan(&b, "B"),
                             OverlapsExpr(Col("A_VT"), Col("B_VT")), "L", "R",
                             JoinAlgorithm::kIndexNL);
  auto r2 = Execute(empty_outer);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 0u);
}

TEST(IndexJoinEdgeCaseTest, AllOverlappingInnerDegeneratesToNestedLoop) {
  // Every inner interval overlaps everything (open since 0): the
  // candidate list is the whole inner side per probe — the index prunes
  // nothing and must still match the scan-NL result exactly.
  OngoingRelation a = MakeMixedRelation(13, "A_", 40);
  OngoingRelation b(Schema({{"B_ID", ValueType::kInt64},
                            {"B_VT", ValueType::kOngoingInterval}}));
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(b.Insert({Value::Int64(i),
                          Value::Ongoing(OngoingInterval::SinceUntilNow(0))})
                    .ok());
  }
  PlanPtr indexed = Join(Scan(&a, "A"), Scan(&b, "B"),
                         OverlapsExpr(Col("A_VT"), Col("B_VT")), "L", "R",
                         JoinAlgorithm::kIndexNL);
  PlanPtr scanned = Join(Scan(&a, "A"), Scan(&b, "B"),
                         OverlapsExpr(Col("A_VT"), Col("B_VT")), "L", "R",
                         JoinAlgorithm::kNestedLoop);
  auto want = Execute(scanned);
  ASSERT_TRUE(want.ok());
  auto got = Execute(indexed);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->size(), 0u);
  EXPECT_EQ(Fingerprint(*got), Fingerprint(*want));
  auto got_parallel = Execute(indexed, ForcedParallel(4, 8));
  ASSERT_TRUE(got_parallel.ok());
  EXPECT_EQ(Fingerprint(*got_parallel), Fingerprint(*want));
}

// MaterializedView: the inner index cached inside the compiled tree is
// reused across Refresh() and rebuilt when base-data modifications
// change the indexed inner column — including size-preserving in-place
// valid-time closes. An armed index.build site tells a reuse (the
// refresh passes) from a rebuild (it fails).
TEST(IndexJoinMaterializedViewTest, RefreshRebuildsStaleInnerIndex) {
  OngoingRelation a(Schema({{"A_ID", ValueType::kInt64},
                            {"A_VT", ValueType::kOngoingInterval}}));
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        a.Insert({Value::Int64(i),
                  Value::Ongoing(OngoingInterval::Fixed(100 + i, 140 + i))})
            .ok());
  }
  OngoingRelation b(Schema({{"B_ID", ValueType::kInt64},
                            {"B_VT", ValueType::kOngoingInterval}}));
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(b.Insert({Value::Int64(i),
                          Value::Ongoing(OngoingInterval::SinceUntilNow(i))})
                    .ok());
  }
  PlanPtr indexed = Join(Scan(&a, "A"), Scan(&b, "B"),
                         BeforeExpr(Col("B_VT"), Col("A_VT")), "L", "R",
                         JoinAlgorithm::kIndexNL);
  PlanPtr scanned = Join(Scan(&a, "A"), Scan(&b, "B"),
                         BeforeExpr(Col("B_VT"), Col("A_VT")), "L", "R",
                         JoinAlgorithm::kNestedLoop);
  auto view = MaterializedView::Create(indexed);
  ASSERT_TRUE(view.ok());
  auto expected0 = Execute(scanned);
  ASSERT_TRUE(expected0.ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*expected0));

  // A refresh without modifications reuses the cached inner index.
  {
    ScopedFailpoint no_builds("index.build", "always");
    ASSERT_TRUE(view->Refresh().ok());
  }
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*expected0));

  // Close half the inner tuples at tc = 50: their VT becomes [i, 50) —
  // now before every outer interval; an in-place, size-preserving
  // change the fingerprint must catch.
  auto deleted = TemporalDelete(&b, 1, 50, [](const Tuple& t) {
    return t.value(0).AsInt64() < 20;
  });
  ASSERT_TRUE(deleted.ok());
  ASSERT_EQ(b.size(), 40u);
  {
    ScopedFailpoint no_builds("index.build", "always");
    EXPECT_FALSE(view->Refresh().ok());
  }
  ASSERT_TRUE(view->Refresh().ok());
  auto expected1 = Execute(scanned);
  ASSERT_TRUE(expected1.ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*expected1));
  EXPECT_NE(Fingerprint(*expected1), Fingerprint(*expected0));

  // Appending inner tuples is detected as well.
  ASSERT_TRUE(b.Insert({Value::Int64(40),
                        Value::Ongoing(OngoingInterval::Fixed(0, 10))})
                  .ok());
  ASSERT_TRUE(view->Refresh().ok());
  auto expected2 = Execute(scanned);
  ASSERT_TRUE(expected2.ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*expected2));
}

// Re-opening the same compiled tree must reset the outer stream and the
// suspended candidate cursor.
TEST(IndexJoinBatchBoundaryTest, ReopenProducesTheSameResult) {
  OngoingRelation a = MakeMixedRelation(17, "A_", 50);
  OngoingRelation b = MakeMixedRelation(18, "B_", 50);
  PlanPtr plan = TemporalJoin(&a, &b, AllenOp::kOverlaps, "A_VT", "B_VT",
                              true, JoinAlgorithm::kIndexNL);
  auto compiled = Compile(plan, ExecMode::kOngoing);
  ASSERT_TRUE(compiled.ok());
  auto first = DrainToRelation(**compiled);
  ASSERT_TRUE(first.ok());
  auto second = DrainToRelation(**compiled);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->size(), 0u);
  EXPECT_EQ(Fingerprint(*first), Fingerprint(*second));
}

// Batch capacity 1 forces suspension after every emitted tuple,
// mid-candidate-list; the drain protocol must still hold.
TEST(IndexJoinBatchBoundaryTest, SuspendsAndResumesAtTinyCapacities) {
  OngoingRelation a = MakeMixedRelation(19, "A_", 30);
  OngoingRelation b = MakeMixedRelation(20, "B_", 30);
  PlanPtr indexed = TemporalJoin(&a, &b, AllenOp::kOverlaps, "A_VT", "B_VT",
                                 true, JoinAlgorithm::kIndexNL);
  PlanPtr scanned = TemporalJoin(&a, &b, AllenOp::kOverlaps, "A_VT", "B_VT",
                                 true, JoinAlgorithm::kNestedLoop);
  auto want = Execute(scanned);
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want->size(), 0u);
  for (size_t capacity : {size_t{1}, size_t{3}, size_t{64}}) {
    auto op = Compile(indexed, ExecMode::kOngoing);
    ASSERT_TRUE(op.ok());
    EXPECT_EQ(plan_fuzz::DrainCountWithCapacity(**op, capacity), want->size())
        << "capacity " << capacity;
  }
}

// Neither the paper's model nor SQL has NULL, so a stored relation
// holds none: a row with a NULL join key or a NULL valid time is
// rejected where it enters. Two such NULL-key rows next to two K = 1 rows
// per side once made the hash join pair the NULL keys while the
// nested-loop join failed on them. Every lowering now returns the same
// rows, serially and at 4 workers, in both execution modes, and a filter
// on K reads every row.
TEST(NullRowTest, RejectedWhereRowsEnterSoEveryLoweringAgrees) {
  const Schema schema({{"ID", ValueType::kInt64},
                       {"K", ValueType::kInt64},
                       {"VT", ValueType::kOngoingInterval}});
  OngoingRelation a(schema);
  OngoingRelation b(schema);
  for (OngoingRelation* r : {&a, &b}) {
    for (int64_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(r->Insert({Value::Int64(i), Value::Int64(1),
                             Value::Ongoing(
                                 OngoingInterval::SinceUntilNow(10 * i))})
                      .ok());
      const Status null_key =
          r->Insert({Value::Int64(10 + i), Value::Null(),
                     Value::Ongoing(OngoingInterval::SinceUntilNow(0))});
      EXPECT_EQ(null_key.code(), StatusCode::kTypeError) << null_key;
      const Status null_vt =
          r->Insert({Value::Int64(20 + i), Value::Int64(1), Value::Null()});
      EXPECT_EQ(null_vt.code(), StatusCode::kTypeError) << null_vt;
    }
    ASSERT_EQ(r->size(), 2u);
  }

  const ExprPtr join_pred =
      And(Eq(Col("A.K"), Col("B.K")), OverlapsExpr(Col("A.VT"), Col("B.VT")));
  auto join = [&](JoinAlgorithm algorithm) {
    return Join(Scan(&a, "A"), Scan(&b, "B"), join_pred, "A", "B", algorithm);
  };
  const std::vector<std::pair<std::string, PlanPtr>> plans = {
      {"auto", join(JoinAlgorithm::kAuto)},
      {"hash", join(JoinAlgorithm::kHash)},
      {"nested loop", join(JoinAlgorithm::kNestedLoop)},
      {"index nested loop", join(JoinAlgorithm::kIndexNL)},
  };
  Result<OngoingRelation> want = Execute(join(JoinAlgorithm::kNestedLoop));
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(want->size(), 4u);
  Result<OngoingRelation> want_at =
      ExecuteAtReferenceTime(join(JoinAlgorithm::kNestedLoop), 150);
  ASSERT_TRUE(want_at.ok()) << want_at.status();
  for (const auto& [name, plan] : plans) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << name << ", workers " << workers);
      Result<OngoingRelation> ongoing =
          Execute(plan, ForcedParallel(workers, 256));
      ASSERT_TRUE(ongoing.ok()) << ongoing.status();
      EXPECT_EQ(Fingerprint(*ongoing), Fingerprint(*want));
      Result<OngoingRelation> at =
          ExecuteAtReferenceTime(plan, 150, ForcedParallel(workers, 256));
      ASSERT_TRUE(at.ok()) << at.status();
      EXPECT_EQ(Fingerprint(*at), Fingerprint(*want_at));
    }
  }
  Result<OngoingRelation> filtered =
      Execute(Filter(Scan(&a, "A"), Eq(Col("K"), Lit(int64_t{1}))));
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_EQ(filtered->size(), 2u);
}

}  // namespace
}  // namespace ongoingdb
