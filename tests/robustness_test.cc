// Cross-cutting robustness tests: plan rendering, expression rewriting,
// boundary values near the time-domain limits, and
// reopen-after-error drills for every physical operator kind.
#include <gtest/gtest.h>

#include "core/operations.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "testing/plan_fuzz.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

TEST(PlanRenderingTest, TreeStructureVisible) {
  OngoingRelation r(Schema({{"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  PlanPtr plan = ProjectPlan(
      Filter(Join(Scan(&r, "R"), Scan(&r, "S"), Eq(Col("L.K"), Col("R.K")),
                  "L", "R", JoinAlgorithm::kHash),
             Lt(Col("L.K"), Lit(int64_t{5}))),
      {"L.K"});
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Project [L.K]"), std::string::npos);
  EXPECT_NE(rendered.find("Filter (L.K < 5)"), std::string::npos);
  EXPECT_NE(rendered.find("Join[hash]"), std::string::npos);
  EXPECT_NE(rendered.find("Scan(R, 0 tuples)"), std::string::npos);
}

TEST(ExprRewriteTest, RenamesAllColumnKinds) {
  ExprPtr pred =
      And(Or(Eq(Col("L.A"), Col("R.B")), Not(Lt(Col("L.C"), Lit(int64_t{1})))),
          OverlapsExpr(IntersectExpr(Col("L.VT"), Col("R.VT")),
                       Lit(OngoingInterval::Fixed(0, 1))));
  ExprPtr rewritten = pred->RewriteColumns([](const std::string& name) {
    return name.substr(name.find('.') + 1);
  });
  std::vector<std::string> columns;
  rewritten->CollectColumns(&columns);
  EXPECT_EQ(columns, (std::vector<std::string>{"A", "B", "C", "VT", "VT"}));
  // The original is untouched (expressions are immutable).
  columns.clear();
  pred->CollectColumns(&columns);
  EXPECT_EQ(columns[0], "L.A");
}

TEST(BoundaryTest, OperationsAtDomainLimits) {
  // Points anchored at the domain limits stay consistent.
  OngoingTimePoint at_min = OngoingTimePoint::Fixed(kMinInfinity);
  OngoingTimePoint at_max = OngoingTimePoint::Fixed(kMaxInfinity);
  EXPECT_TRUE(Less(at_min, at_max).IsAlwaysTrue());
  EXPECT_TRUE(Less(at_max, at_min).IsAlwaysFalse());
  // now vs the limits.
  EXPECT_TRUE(Less(OngoingTimePoint::Now(), at_max)
                  .Instantiate(kMaxInfinity - 1));
  EXPECT_FALSE(Less(OngoingTimePoint::Now(), at_min).Instantiate(0));
  // Min/max stay in Omega at the limits.
  OngoingTimePoint mixed = Min(OngoingTimePoint::Now(), at_max);
  EXPECT_LE(mixed.a(), mixed.b());
}

TEST(BoundaryTest, LessThanNearUpperLimit) {
  // b + 1 == kMaxInfinity must not produce an invalid interval set.
  OngoingTimePoint t1(0, kMaxInfinity - 1);
  OngoingTimePoint t2(1, kMaxInfinity);
  OngoingBoolean b = Less(t1, t2);
  for (TimePoint rt : {TimePoint{-10}, TimePoint{0}, TimePoint{5},
                       kMaxInfinity - 2}) {
    EXPECT_EQ(b.Instantiate(rt), t1.Instantiate(rt) < t2.Instantiate(rt));
  }
}

TEST(BoundaryTest, IntervalSetMinMaxAccessors) {
  IntervalSet s{{5, 10}, {20, 30}};
  EXPECT_EQ(s.Min(), 5);
  EXPECT_EQ(s.MaxExclusive(), 30);
}

TEST(OptimizerRobustnessTest, NestedFiltersAndProjections) {
  OngoingRelation r(Schema({{"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(r.Insert({Value::Int64(i),
                          Value::Ongoing(
                              OngoingInterval::SinceUntilNow(i * 3))})
                    .ok());
  }
  // Filter over filter over join over scans, with a projection on top.
  PlanPtr plan = ProjectPlan(
      Filter(Filter(Join(Scan(&r, "R"), Scan(&r, "S"),
                         Eq(Col("L.K"), Col("R.K")), "L", "R"),
                    Lt(Col("L.K"), Lit(int64_t{15}))),
             OverlapsExpr(Col("L.VT"), Lit(OngoingInterval::Fixed(10, 40)))),
      {"L.K"});
  auto optimized = Optimize(plan);
  ASSERT_TRUE(optimized.ok());
  auto plain = Execute(plan);
  auto opt = Execute(*optimized);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(plain->size(), opt->size());
  for (TimePoint rt = 0; rt <= 80; rt += 9) {
    EXPECT_TRUE(InstantiatedRelationsEqual(InstantiateRelation(*plain, rt),
                                           InstantiateRelation(*opt, rt)));
  }
}

TEST(OptimizerRobustnessTest, SchemaErrorsPropagate) {
  OngoingRelation r(Schema({{"K", ValueType::kInt64}}));
  // Projection of a missing column fails cleanly at schema derivation.
  PlanPtr plan = ProjectPlan(Scan(&r, "R"), {"Missing"});
  EXPECT_FALSE(OutputSchema(plan).ok());
  EXPECT_FALSE(Execute(plan).ok());
}

// --- reopen-after-error drills ----------------------------------------------
// Every operator kind is driven into an error at each stage of its
// lifecycle — Open, the first Next, mid-stream — via the planted
// failpoints, and must then reopen to exactly the fault-free result
// (the Open() full-reset contract extended to failed runs).

class ReopenAfterErrorTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoint::DisarmAll(); }
  void TearDown() override { Failpoint::DisarmAll(); }

  // Compiles `plan`, computes the fault-free reference, then for each
  // (site, spec) drill: arm, drain (error or clean finish are both
  // legal — a mid-stream spec may outlast a short stream), disarm, and
  // reopen the same tree expecting the exact reference multiset.
  void Drill(const PlanPtr& plan, const ParallelOptions* options = nullptr) {
    auto compiled = options == nullptr
                        ? Compile(plan, ExecMode::kOngoing, 0, nullptr)
                        : Compile(plan, ExecMode::kOngoing, 0, *options,
                                  nullptr);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    PhysicalOperator& root = **compiled;
    auto reference = DrainToRelation(root);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const auto want = plan_fuzz::Fingerprint(*reference);

    const struct {
      const char* site;
      const char* spec;
    } drills[] = {
        {"exec.open", "always"},        // error on Open
        {"exec.open", "after:1"},       // error on a later Open (inner op)
        {"exec.next", "always"},        // error on the first Next
        {"exec.next", "after:2"},       // error mid-stream
        {"exec.materialize", "after:1"},  // error inside a blocking build
    };
    for (const auto& drill : drills) {
      SCOPED_TRACE(std::string(drill.site) + "=" + drill.spec);
      {
        ScopedFailpoint guard(drill.site, drill.spec);
        auto faulty = DrainToRelation(root);
        if (!faulty.ok()) {
          EXPECT_NE(faulty.status().message().find("failpoint"),
                    std::string::npos)
              << faulty.status().ToString();
        }
      }
      auto recovered = DrainToRelation(root);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(plan_fuzz::Fingerprint(*recovered), want);
    }
  }

  OngoingRelation MakeRel(uint64_t seed, const char* prefix, size_t n) {
    Rng rng(seed);
    return plan_fuzz::MakeBase(rng, prefix, n);
  }
};

TEST_F(ReopenAfterErrorTest, ScanAndFilter) {
  OngoingRelation r = MakeRel(1, "F_", 20);
  Drill(Filter(Scan(&r, "R"), Lt(Col("F_ID"), Lit(int64_t{15}))));
}

TEST_F(ReopenAfterErrorTest, TemporalFilter) {
  OngoingRelation r = MakeRel(2, "I_", 30);
  Drill(Filter(Scan(&r, "R"),
               OverlapsExpr(Col("I_VT"), Lit(OngoingInterval::Fixed(10, 60)))));
}

TEST_F(ReopenAfterErrorTest, Project) {
  OngoingRelation r = MakeRel(3, "P_", 20);
  Drill(ProjectPlan(Filter(Scan(&r, "R"), Lt(Col("P_ID"), Lit(int64_t{18}))),
                    {"P_ID", "P_VT"}));
}

TEST_F(ReopenAfterErrorTest, HashJoin) {
  OngoingRelation l = MakeRel(4, "L_", 15), r = MakeRel(5, "R_", 15);
  Drill(Join(Scan(&l, "L"), Scan(&r, "R"), Eq(Col("L_K"), Col("R_K")), "L",
             "R", JoinAlgorithm::kHash));
}

TEST_F(ReopenAfterErrorTest, NestedLoopJoin) {
  OngoingRelation l = MakeRel(6, "L_", 12), r = MakeRel(7, "R_", 12);
  Drill(Join(Scan(&l, "L"), Scan(&r, "R"),
             OverlapsExpr(Col("L_VT"), Col("R_VT")), "L", "R",
             JoinAlgorithm::kNestedLoop));
}

TEST_F(ReopenAfterErrorTest, IndexNestedLoopJoin) {
  OngoingRelation l = MakeRel(10, "L_", 12), r = MakeRel(11, "R_", 12);
  Drill(Join(Scan(&l, "L"), Scan(&r, "R"),
             OverlapsExpr(Col("L_VT"), Col("R_VT")), "L", "R",
             JoinAlgorithm::kIndexNL));
}

TEST_F(ReopenAfterErrorTest, ParallelGatherAndRepartition) {
  // The morsel-driven lowering: exchange scan leaves, RepartitionOp
  // around the partitioned join, GatherOp at the root — with producer
  // tasks that must be joined on every faulty drain.
  OngoingRelation l = MakeRel(12, "L_", 20), r = MakeRel(13, "R_", 20);
  PlanPtr plan = Join(Filter(Scan(&l, "L"), Lt(Col("L_ID"), Lit(int64_t{18}))),
                      Scan(&r, "R"), Eq(Col("L_K"), Col("R_K")), "L", "R",
                      JoinAlgorithm::kHash);
  for (size_t workers : {2u, 4u}) {
    SCOPED_TRACE(workers);
    ParallelOptions options = plan_fuzz::ForcedParallel(workers, 3);
    Drill(plan, &options);
    // The gather handoff seam as well: producers fail asynchronously.
    auto compiled = Compile(plan, ExecMode::kOngoing, 0, options, nullptr);
    ASSERT_TRUE(compiled.ok());
    auto reference = DrainToRelation(**compiled);
    ASSERT_TRUE(reference.ok());
    for (const char* site : {"gather.handoff", "repartition.route"}) {
      SCOPED_TRACE(site);
      {
        ScopedFailpoint guard(site, "after:1");
        auto faulty = DrainToRelation(**compiled);
        if (!faulty.ok()) {
          EXPECT_NE(faulty.status().message().find("failpoint"),
                    std::string::npos);
        }
      }
      auto recovered = DrainToRelation(**compiled);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(plan_fuzz::Fingerprint(*recovered),
                plan_fuzz::Fingerprint(*reference));
    }
  }
}

TEST(RelationPrintingTest, TruncatesLongRelations) {
  OngoingRelation r(Schema({{"K", ValueType::kInt64}}));
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(r.Insert({Value::Int64(i)}).ok());
  }
  std::string rendered = r.ToString(/*max_rows=*/10);
  EXPECT_NE(rendered.find("(50 more rows)"), std::string::npos);
}

}  // namespace
}  // namespace ongoingdb
