// Tests of the query engine: plans, executor modes, join algorithm
// equivalence, optimizer rewrites, and materialized views.
#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/join.h"
#include "query/materialized_view.h"
#include "query/optimizer.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

// A small randomized workload: relations R(ID, K, VT) and S(ID, K, VT)
// with mixed fixed/ongoing intervals.
OngoingRelation MakeRelation(uint64_t seed, size_t n) {
  Rng rng(seed);
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < n; ++i) {
    OngoingInterval vt;
    if (rng.Bernoulli(0.3)) {
      vt = OngoingInterval::SinceUntilNow(rng.Uniform(0, 100));
    } else if (rng.Bernoulli(0.2)) {
      vt = OngoingInterval::FromNowUntil(rng.Uniform(0, 100));
    } else {
      TimePoint s = rng.Uniform(0, 100);
      vt = OngoingInterval::Fixed(s, s + rng.Uniform(1, 30));
    }
    EXPECT_TRUE(r.Insert({Value::Int64(static_cast<int64_t>(i)),
                          Value::Int64(rng.Uniform(0, 9)),
                          Value::Ongoing(vt)})
                    .ok());
  }
  return r;
}

TEST(QueryEngineTest, ScanReturnsBaseRelation) {
  OngoingRelation r = MakeRelation(1, 10);
  auto result = Execute(Scan(&r, "R"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 10u);
}

TEST(QueryEngineTest, FilterSplitMatchesDirectEvaluation) {
  OngoingRelation r = MakeRelation(2, 50);
  ExprPtr pred = And(Lt(Col("K"), Lit(int64_t{5})),
                     OverlapsExpr(Col("VT"),
                                  Lit(OngoingInterval::Fixed(40, 60))));
  auto result = Execute(Filter(Scan(&r, "R"), pred));
  ASSERT_TRUE(result.ok());
  // Reference: evaluate the full predicate per tuple without the split.
  size_t expected = 0;
  for (const Tuple& t : r.tuples()) {
    auto b = pred->EvalPredicate(r.schema(), t);
    ASSERT_TRUE(b.ok());
    if (!t.rt().Intersect(b->st()).IsEmpty()) ++expected;
  }
  EXPECT_EQ(result->size(), expected);
}

TEST(QueryEngineTest, AllJoinAlgorithmsAgree) {
  OngoingRelation r = MakeRelation(3, 40);
  OngoingRelation s = MakeRelation(4, 30);
  ExprPtr pred = And(Eq(Col("L.K"), Col("R.K")),
                     OverlapsExpr(Col("L.VT"), Col("R.VT")));
  auto nl = NestedLoopJoin(r, s, pred, "L", "R");
  auto hash = HashJoin(r, s, pred, "L", "R");
  ASSERT_TRUE(nl.ok());
  ASSERT_TRUE(hash.ok());
  EXPECT_GT(nl->size(), 0u);
  EXPECT_EQ(nl->size(), hash->size());
  // Same instantiations at every probe time.
  for (TimePoint rt = -10; rt <= 120; rt += 13) {
    OngoingRelation a = InstantiateRelation(*nl, rt);
    EXPECT_TRUE(InstantiatedRelationsEqual(a, InstantiateRelation(*hash, rt)));
  }
}

TEST(QueryEngineTest, EquiKeyExtraction) {
  OngoingRelation r = MakeRelation(5, 5);
  ExprPtr pred = And(Eq(Col("L.K"), Col("R.K")),
                     OverlapsExpr(Col("L.VT"), Col("R.VT")));
  std::vector<EquiKey> keys;
  ExprPtr residual;
  ASSERT_TRUE(ExtractEquiConjuncts(pred, r.schema(), r.schema(), "L", "R",
                                   &keys, &residual)
                  .ok());
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].left_index, 1u);
  EXPECT_EQ(keys[0].right_index, 1u);
  ASSERT_NE(residual, nullptr);
  EXPECT_EQ(residual->ToString(), "(L.VT overlaps R.VT)");
}

TEST(QueryEngineTest, OngoingEqualityIsNotAHashKey) {
  // Equality on ongoing attributes is time-dependent and must stay in
  // the residual.
  OngoingRelation r = MakeRelation(6, 5);
  ExprPtr pred = Eq(Col("L.VT"), Col("R.VT"));
  std::vector<EquiKey> keys;
  ExprPtr residual;
  ASSERT_TRUE(ExtractEquiConjuncts(pred, r.schema(), r.schema(), "L", "R",
                                   &keys, &residual)
                  .ok());
  EXPECT_TRUE(keys.empty());
  EXPECT_NE(residual, nullptr);
}

TEST(QueryEngineTest, CliffordModeMatchesInstantiatedOngoing) {
  OngoingRelation r = MakeRelation(7, 30);
  OngoingRelation s = MakeRelation(8, 20);
  PlanPtr plan =
      Join(Filter(Scan(&r, "R"), Lt(Col("K"), Lit(int64_t{7}))),
           Scan(&s, "S"),
           And(Eq(Col("L.K"), Col("R.K")),
               OverlapsExpr(Col("L.VT"), Col("R.VT"))),
           "L", "R");
  auto ongoing = Execute(plan);
  ASSERT_TRUE(ongoing.ok());
  for (TimePoint rt : {TimePoint{-5}, TimePoint{25}, TimePoint{75},
                       TimePoint{150}}) {
    auto clifford = ExecuteAtReferenceTime(plan, rt);
    ASSERT_TRUE(clifford.ok());
    EXPECT_TRUE(InstantiatedRelationsEqual(InstantiateRelation(*ongoing, rt),
                                           *clifford))
        << "rt=" << rt;
  }
}

TEST(QueryEngineTest, OptimizerPushesFilterBelowJoin) {
  OngoingRelation r = MakeRelation(9, 10);
  OngoingRelation s = MakeRelation(10, 10);
  // Filter on L.K only references the left side.
  PlanPtr plan = Filter(
      Join(Scan(&r, "R"), Scan(&s, "S"), Eq(Col("L.K"), Col("R.K")), "L",
           "R"),
      Lt(Col("L.K"), Lit(int64_t{5})));
  auto optimized = PushDownFilters(plan);
  ASSERT_TRUE(optimized.ok());
  // The root is now the join; the filter moved below.
  EXPECT_EQ((*optimized)->kind(), PlanKind::kJoin);
  const auto* join = static_cast<const JoinNode*>(optimized->get());
  EXPECT_EQ(join->left()->kind(), PlanKind::kFilter);
  // Results agree.
  auto a = Execute(plan);
  auto b = Execute(*optimized);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), b->size());
}

TEST(QueryEngineTest, OptimizerChoosesHashJoinForEquiPredicates) {
  OngoingRelation r = MakeRelation(11, 5);
  OngoingRelation s = MakeRelation(12, 5);
  PlanPtr equi = Join(Scan(&r, "R"), Scan(&s, "S"),
                      Eq(Col("L.K"), Col("R.K")), "L", "R");
  auto chosen = ChooseJoinAlgorithms(equi);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(static_cast<const JoinNode*>(chosen->get())->algorithm(),
            JoinAlgorithm::kHash);
  PlanPtr theta = Join(Scan(&r, "R"), Scan(&s, "S"),
                       OverlapsExpr(Col("L.VT"), Col("R.VT")), "L", "R");
  auto chosen2 = ChooseJoinAlgorithms(theta);
  ASSERT_TRUE(chosen2.ok());
  EXPECT_EQ(static_cast<const JoinNode*>(chosen2->get())->algorithm(),
            JoinAlgorithm::kNestedLoop);
}

TEST(QueryEngineTest, OutputSchemaMatchesExecution) {
  OngoingRelation r = MakeRelation(13, 5);
  OngoingRelation s = MakeRelation(14, 5);
  PlanPtr plan = ProjectPlan(
      Join(Scan(&r, "R"), Scan(&s, "S"), Eq(Col("L.K"), Col("R.K")), "L",
           "R"),
      {"L.ID", "R.ID"});
  auto schema = OutputSchema(plan);
  auto result = Execute(plan);
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*schema, result->schema());
}

TEST(QueryEngineTest, MaterializedViewInstantiatesWithoutReevaluation) {
  OngoingRelation r = MakeRelation(15, 40);
  PlanPtr plan = Filter(Scan(&r, "R"),
                        OverlapsExpr(Col("VT"),
                                     Lit(OngoingInterval::Fixed(50, 80))));
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok());
  for (TimePoint rt : {TimePoint{0}, TimePoint{60}, TimePoint{120}}) {
    OngoingRelation from_view = view->InstantiateAt(rt);
    auto direct = ExecuteAtReferenceTime(plan, rt);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(InstantiatedRelationsEqual(from_view, *direct)) << rt;
  }
}

}  // namespace
}  // namespace ongoingdb
