// Tests of the index-backed temporal selection in the batched/parallel
// pipeline: Compile() must lower eligible Filter(Scan) plans that force
// AccessPath::kIndex to an index scan (kAuto takes the full scan), and
// the index path must be equivalent to the full-scan filter —
// randomized over overlaps/before/meets probes in both orientations
// plus timeslice CONTAINS points, ongoing + fixed + mixed interval
// columns, serial and parallel drains, and both execution modes
// (shared harness: tests/testing/plan_fuzz.h; failures print their fuzz
// seed, replay with ONGOINGDB_TEST_SEED=<seed>). Also covers the
// MaterializedView contract: the index is cached inside the compiled
// tree across Refresh() and rebuilt when base-data modifications change
// the indexed column.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "query/materialized_view.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "relation/modifications.h"
#include "testing/plan_fuzz.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeMixedRelation;

PlanPtr ProbePlan(const OngoingRelation* r, AllenOp op,
                  const std::string& column, FixedInterval probe,
                  AccessPath path, ExprPtr extra_conjunct = nullptr,
                  bool literal_on_left = false) {
  ExprPtr lit = Lit(OngoingInterval::Fixed(probe.start, probe.end));
  ExprPtr pred = literal_on_left ? Allen(op, std::move(lit), Col(column))
                                 : Allen(op, Col(column), std::move(lit));
  if (extra_conjunct != nullptr) pred = And(std::move(pred), extra_conjunct);
  return Filter(Scan(r, "R"), std::move(pred), path);
}

// An eligible Filter(Scan) lowers to an index scan when it forces
// AccessPath::kIndex; under kAuto it lowers to the full scan, which
// needs no cold index build before its first probe.
TEST(IndexScanLoweringTest, EligibleFilterScanLowersToIndexScan) {
  OngoingRelation r = MakeMixedRelation(1, "", 16);
  auto expect_lowering = [](const PlanPtr& indexed, const PlanPtr& automatic) {
    for (ExecMode mode : {ExecMode::kOngoing, ExecMode::kAtReferenceTime}) {
      auto forced = Compile(indexed, mode, 50);
      ASSERT_TRUE(forced.ok());
      EXPECT_STREQ((*forced)->Name(), "IndexScan");
      auto chosen = Compile(automatic, mode, 50);
      ASSERT_TRUE(chosen.ok());
      EXPECT_STREQ((*chosen)->Name(), "Scan");
    }
  };
  for (AllenOp op : {AllenOp::kOverlaps, AllenOp::kBefore, AllenOp::kMeets}) {
    for (const char* column : {"VT", "FT"}) {
      for (bool literal_on_left : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "op=" << static_cast<int>(op) << " column=" << column
                     << " literal_on_left=" << literal_on_left);
        expect_lowering(
            ProbePlan(&r, op, column, FixedInterval{40, 60}, AccessPath::kIndex,
                      nullptr, literal_on_left),
            ProbePlan(&r, op, column, FixedInterval{40, 60}, AccessPath::kAuto,
                      nullptr, literal_on_left));
      }
    }
  }
  // A residual conjunct rides along: the filter is still index-backed.
  const ExprPtr residual = Lt(Col("ID"), Lit(int64_t{8}));
  expect_lowering(ProbePlan(&r, AllenOp::kOverlaps, "VT", FixedInterval{40, 60},
                            AccessPath::kIndex, residual),
                  ProbePlan(&r, AllenOp::kOverlaps, "VT", FixedInterval{40, 60},
                            AccessPath::kAuto, residual));
  // Timeslice probes: column CONTAINS a fixed time point is eligible in
  // both point representations.
  for (const Value& point :
       {Value::Time(50), Value::Ongoing(OngoingTimePoint(50, 50))}) {
    const ExprPtr contains = ContainsExpr(Col("VT"), Lit(point));
    expect_lowering(Filter(Scan(&r, "R"), contains, AccessPath::kIndex),
                    Filter(Scan(&r, "R"), contains));
  }
}

TEST(IndexScanLoweringTest, IneligiblePredicatesKeepTheFilterLowering) {
  OngoingRelation r = MakeMixedRelation(2, "", 16);
  // Not an Allen probe at all.
  PlanPtr fixed_only = Filter(Scan(&r, "R"), Lt(Col("ID"), Lit(int64_t{8})));
  auto c1 = Compile(fixed_only, ExecMode::kOngoing);
  ASSERT_TRUE(c1.ok());
  EXPECT_STREQ((*c1)->Name(), "Scan");
  // An unsupported Allen operator.
  PlanPtr during = Filter(Scan(&r, "R"),
                          Allen(AllenOp::kDuring, Col("VT"),
                                Lit(OngoingInterval::Fixed(40, 60))));
  auto c2 = Compile(during, ExecMode::kOngoing);
  ASSERT_TRUE(c2.ok());
  EXPECT_STREQ((*c2)->Name(), "Scan");
  // A probe that is not fixed at every reference time.
  PlanPtr ongoing_probe =
      Filter(Scan(&r, "R"),
             OverlapsExpr(Col("VT"), Lit(OngoingInterval::SinceUntilNow(40))));
  auto c3 = Compile(ongoing_probe, ExecMode::kOngoing);
  ASSERT_TRUE(c3.ok());
  EXPECT_STREQ((*c3)->Name(), "Scan");
  // Column-vs-column predicates have no fixed probe.
  PlanPtr col_col = Filter(Scan(&r, "R"), OverlapsExpr(Col("VT"), Col("FT")));
  auto c4 = Compile(col_col, ExecMode::kOngoing);
  ASSERT_TRUE(c4.ok());
  EXPECT_STREQ((*c4)->Name(), "Scan");
  // A CONTAINS against an ongoing point with spread bounds (depends on
  // the reference time) is no timeslice probe.
  PlanPtr spread_point = Filter(
      Scan(&r, "R"), ContainsExpr(Col("VT"), Lit(OngoingTimePoint(40, 60))));
  auto c5 = Compile(spread_point, ExecMode::kOngoing);
  ASSERT_TRUE(c5.ok());
  EXPECT_STREQ((*c5)->Name(), "Scan");
}

TEST(IndexScanLoweringTest, ForcedAccessPathsAreRespected) {
  OngoingRelation r = MakeMixedRelation(3, "", 16);
  PlanPtr forced_scan = ProbePlan(&r, AllenOp::kOverlaps, "VT",
                                  FixedInterval{40, 60}, AccessPath::kFullScan);
  auto c1 = Compile(forced_scan, ExecMode::kOngoing);
  ASSERT_TRUE(c1.ok());
  EXPECT_STREQ((*c1)->Name(), "Scan");

  PlanPtr forced_index = ProbePlan(&r, AllenOp::kBefore, "VT",
                                   FixedInterval{40, 60}, AccessPath::kIndex);
  auto c2 = Compile(forced_index, ExecMode::kOngoing);
  ASSERT_TRUE(c2.ok());
  EXPECT_STREQ((*c2)->Name(), "IndexScan");

  // Forcing the index on an ineligible predicate is a compile error.
  PlanPtr bad = Filter(Scan(&r, "R"), Lt(Col("ID"), Lit(int64_t{3})),
                       AccessPath::kIndex);
  EXPECT_FALSE(Compile(bad, ExecMode::kOngoing).ok());
  EXPECT_FALSE(Execute(bad).ok());
}

// The optimizer's rewrites preserve the access-path annotation.
TEST(IndexScanLoweringTest, OptimizePreservesAccessPath) {
  OngoingRelation r = MakeMixedRelation(4, "", 16);
  for (auto [path, name] : {std::pair{AccessPath::kFullScan, "Scan"},
                            std::pair{AccessPath::kIndex, "IndexScan"}}) {
    PlanPtr plan = ProbePlan(&r, AllenOp::kOverlaps, "VT",
                             FixedInterval{40, 60}, path);
    auto optimized = Optimize(plan);
    ASSERT_TRUE(optimized.ok());
    auto compiled = Compile(*optimized, ExecMode::kOngoing);
    ASSERT_TRUE(compiled.ok());
    EXPECT_STREQ((*compiled)->Name(), name);
  }
}

// Pushing a forced filter's conjuncts below a join must keep the
// annotation on the pushed filter — otherwise a forced access path (the
// ablations' index scan or scan baseline) silently reverts to kAuto
// after pushdown.
TEST(IndexScanLoweringTest, PushDownPreservesAccessPathOnPushedFilters) {
  OngoingRelation r = MakeMixedRelation(5, "", 16);
  OngoingRelation s = MakeMixedRelation(6, "", 16);
  for (auto [path, name] : {std::pair{AccessPath::kFullScan, "Scan"},
                            std::pair{AccessPath::kIndex, "IndexScan"}}) {
    PlanPtr plan = Filter(
        Join(Scan(&r, "A"), Scan(&s, "B"), Eq(Col("L.ID"), Col("R.ID")), "L",
             "R"),
        OverlapsExpr(Col("L.VT"), Lit(OngoingInterval::Fixed(40, 60))), path);
    auto pushed = PushDownFilters(plan);
    ASSERT_TRUE(pushed.ok());
    ASSERT_EQ((*pushed)->kind(), PlanKind::kJoin);
    const auto* join = static_cast<const JoinNode*>(pushed->get());
    ASSERT_EQ(join->left()->kind(), PlanKind::kFilter);
    const auto* pushed_filter =
        static_cast<const FilterNode*>(join->left().get());
    EXPECT_EQ(pushed_filter->access_path(), path);
    auto compiled = Compile(join->left(), ExecMode::kOngoing);
    ASSERT_TRUE(compiled.ok());
    EXPECT_STREQ((*compiled)->Name(), name);
  }
}

class IndexScanEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// Index-backed selection == full-scan selection: randomized probes over
// all eligible predicates (overlaps/before/meets, both orientations,
// plus CONTAINS timeslice points) and both interval columns, with and
// without a fixed residual conjunct, in both execution modes, serial
// and parallel.
TEST_P(IndexScanEquivalenceTest, IndexPathMatchesFullScan) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  OngoingRelation r = MakeMixedRelation(seed, "", 300);
  Rng rng(seed + 100);
  for (int probe_i = 0; probe_i < 6; ++probe_i) {
    const std::string column = rng.Bernoulli(0.5) ? "VT" : "FT";
    TimePoint s = rng.Uniform(0, 120);
    const FixedInterval probe{s, s + rng.Uniform(1, 50)};
    ExprPtr residual = rng.Bernoulli(0.5)
                           ? Lt(Col("ID"), Lit(rng.Uniform(0, 300)))
                           : nullptr;
    PlanPtr indexed, scanned;
    if (rng.Bernoulli(0.2)) {
      // Timeslice probe: VT CONTAINS s.
      ExprPtr make_contains = ContainsExpr(Col(column), Lit(Value::Time(s)));
      ExprPtr pred = residual != nullptr
                         ? And(make_contains, residual)
                         : make_contains;
      indexed = Filter(Scan(&r, "R"), pred, AccessPath::kIndex);
      scanned = Filter(Scan(&r, "R"), pred, AccessPath::kFullScan);
    } else {
      const AllenOp ops[] = {AllenOp::kOverlaps, AllenOp::kBefore,
                             AllenOp::kMeets};
      const AllenOp op = ops[rng.Uniform(0, 2)];
      const bool literal_on_left = rng.Bernoulli(0.5);
      indexed = ProbePlan(&r, op, column, probe, AccessPath::kIndex, residual,
                          literal_on_left);
      scanned = ProbePlan(&r, op, column, probe, AccessPath::kFullScan,
                          residual, literal_on_left);
    }

    auto scan_result = Execute(scanned);
    ASSERT_TRUE(scan_result.ok());
    const std::multiset<std::string> expected = Fingerprint(*scan_result);

    auto index_result = Execute(indexed);
    ASSERT_TRUE(index_result.ok());
    EXPECT_EQ(Fingerprint(*index_result), expected)
        << "serial, probe " << probe_i << " column=" << column;

    for (size_t workers : {2u, 4u}) {
      auto parallel_result = Execute(indexed, ForcedParallel(workers, 64));
      ASSERT_TRUE(parallel_result.ok());
      EXPECT_EQ(Fingerprint(*parallel_result), expected)
          << "workers=" << workers;
    }

    // Clifford semantics at sampled reference times.
    for (TimePoint rt : {TimePoint{-10}, TimePoint{25}, TimePoint{80},
                         TimePoint{160}}) {
      auto scan_at = ExecuteAtReferenceTime(scanned, rt);
      ASSERT_TRUE(scan_at.ok());
      auto index_at = ExecuteAtReferenceTime(indexed, rt);
      ASSERT_TRUE(index_at.ok());
      EXPECT_EQ(Fingerprint(*index_at), Fingerprint(*scan_at)) << "rt=" << rt;
      auto parallel_at =
          ExecuteAtReferenceTime(indexed, rt, ForcedParallel(4, 64));
      ASSERT_TRUE(parallel_at.ok());
      EXPECT_EQ(Fingerprint(*parallel_at), Fingerprint(*scan_at))
          << "parallel rt=" << rt;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IndexScanEquivalenceTest,
                         ::testing::ValuesIn(FuzzSeeds(12)));

// Batch-boundary sizes through the index path: results of exactly
// 0, 1, capacity and capacity + 1 tuples.
TEST(IndexScanBatchBoundaryTest, ExactResultSizes) {
  const size_t cap = TupleBatch::kDefaultCapacity;
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < cap + 50; ++i) {
    ASSERT_TRUE(r.Insert({Value::Int64(static_cast<int64_t>(i)),
                          Value::Ongoing(OngoingInterval::Fixed(10, 20))})
                    .ok());
  }
  for (size_t want : {size_t{0}, size_t{1}, cap, cap + 1}) {
    PlanPtr plan =
        ProbePlan(&r, AllenOp::kOverlaps, "VT", FixedInterval{12, 18},
                  AccessPath::kIndex,
                  Lt(Col("ID"), Lit(static_cast<int64_t>(want))));
    auto result = Execute(plan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), want);
  }
}

// Re-opening the same compiled tree must reset the candidate cursor.
TEST(IndexScanBatchBoundaryTest, ReopenProducesTheSameResult) {
  OngoingRelation r = MakeMixedRelation(7, "", 200);
  PlanPtr plan = ProbePlan(&r, AllenOp::kOverlaps, "VT", FixedInterval{30, 70},
                           AccessPath::kIndex);
  auto compiled = Compile(plan, ExecMode::kOngoing);
  ASSERT_TRUE(compiled.ok());
  auto first = DrainToRelation(**compiled);
  ASSERT_TRUE(first.ok());
  auto second = DrainToRelation(**compiled);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Fingerprint(*first), Fingerprint(*second));
}

// MaterializedView: the compiled tree (and the index inside it) is
// cached across Refresh(); modifications that change the indexed column
// — including in-place valid-time updates that keep the relation size —
// are detected via the column fingerprint and produce fresh results.
TEST(IndexScanMaterializedViewTest, RefreshRebuildsStaleIndex) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(r.Insert({Value::Int64(i),
                          Value::Ongoing(OngoingInterval::SinceUntilNow(i))})
                    .ok());
  }
  const FixedInterval probe{100, 200};
  PlanPtr plan =
      ProbePlan(&r, AllenOp::kBefore, "VT", probe, AccessPath::kIndex);
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok());
  const size_t before_size = view->ongoing_result().size();

  // A refresh without modifications reuses the cached index.
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->ongoing_result().size(), before_size);

  // Close half the tuples at tc = 60: their VT becomes [i, 60), which
  // is before [100, 200) — an in-place, size-preserving change.
  auto deleted = TemporalDelete(&r, 1, 60, [](const Tuple& t) {
    return t.value(0).AsInt64() < 25;
  });
  ASSERT_TRUE(deleted.ok());
  ASSERT_EQ(r.size(), 50u);
  ASSERT_TRUE(view->Refresh().ok());

  PlanPtr rescan =
      ProbePlan(&r, AllenOp::kBefore, "VT", probe, AccessPath::kFullScan);
  auto expected = Execute(rescan);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*expected));

  // Appending tuples is detected as well.
  ASSERT_TRUE(r.Insert({Value::Int64(50),
                        Value::Ongoing(OngoingInterval::Fixed(0, 90))})
                  .ok());
  ASSERT_TRUE(view->Refresh().ok());
  auto expected2 = Execute(rescan);
  ASSERT_TRUE(expected2.ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*expected2));
}

}  // namespace
}  // namespace ongoingdb
