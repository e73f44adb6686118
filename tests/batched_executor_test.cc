// Equivalence tests for the pull-based batched executor
// (query/physical.h) against the shared randomized plan-generator
// harness (tests/testing/plan_fuzz.h): randomized plans across all
// three forced join algorithms and both execution modes, the
// batch-boundary edge cases (results of exactly 0, 1, capacity and
// capacity + 1 tuples), re-open semantics, the parallel workers-1/2/4
// sweep, and the allocation bounds of batched join emission (this test
// links the counting allocator). Failures print their fuzz seed;
// replay with ONGOINGDB_TEST_SEED=<seed>.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/join.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "relation/algebra.h"
#include "testing/plan_fuzz.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

using plan_fuzz::DrainCountWithCapacity;
using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeBase;
using plan_fuzz::PlanFixture;
using plan_fuzz::RandomPlan;
using plan_fuzz::ReferenceExecute;
using plan_fuzz::ReferenceExecuteAt;
using plan_fuzz::WithAlgorithm;

// --- randomized equivalence -------------------------------------------------

class BatchedExecutorEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedExecutorEquivalenceTest, MatchesReferenceInBothModes) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed * 7919 + 13);
  PlanFixture fx;
  PlanPtr plan = RandomPlan(rng, &fx, 3);

  auto reference = ReferenceExecute(plan);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::multiset<std::string> expected = Fingerprint(*reference);

  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
    PlanPtr forced = WithAlgorithm(plan, algorithm);
    auto batched = Execute(forced);
    ASSERT_TRUE(batched.ok()) << batched.status();
    EXPECT_EQ(Fingerprint(*batched), expected)
        << "ongoing mode, algorithm " << static_cast<int>(algorithm);
  }

  for (TimePoint rt : {TimePoint{-20}, TimePoint{15}, TimePoint{60},
                       TimePoint{140}}) {
    auto reference_at = ReferenceExecuteAt(plan, rt);
    ASSERT_TRUE(reference_at.ok()) << reference_at.status();
    const std::multiset<std::string> expected_at = Fingerprint(*reference_at);
    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
      PlanPtr forced = WithAlgorithm(plan, algorithm);
      auto batched = ExecuteAtReferenceTime(forced, rt);
      ASSERT_TRUE(batched.ok()) << batched.status();
      EXPECT_EQ(Fingerprint(*batched), expected_at)
          << "clifford mode at rt=" << rt << ", algorithm "
          << static_cast<int>(algorithm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BatchedExecutorEquivalenceTest,
                         ::testing::ValuesIn(FuzzSeeds(30)));

// --- batch boundaries -------------------------------------------------------

TEST(BatchBoundaryTest, FilterResultsOfExactly0_1_Capacity_CapacityPlus1) {
  // With batch capacity 4, result sizes 0, 1, 4 and 5 cover "no batch",
  // "short batch", "exactly one full batch" and "full batch + remainder".
  constexpr size_t kCapacity = 4;
  Rng rng(42);
  OngoingRelation r = MakeBase(rng, "A_", 32);
  for (int64_t keep : {0, 1, 4, 5}) {
    PlanPtr plan = Filter(Scan(&r, "A"), Lt(Col("A_ID"), Lit(keep)));
    auto op = Compile(plan, ExecMode::kOngoing);
    ASSERT_TRUE(op.ok());
    EXPECT_EQ(DrainCountWithCapacity(**op, kCapacity),
              static_cast<size_t>(keep))
        << "keep=" << keep;
  }
}

TEST(BatchBoundaryTest, JoinEmissionAcrossBatchBoundaries) {
  // An equi self-join over K in [0, 4]: output sizes exceed any batch,
  // so every join algorithm must suspend and resume emission mid-probe
  // (capacity 1 forces a suspension after every single tuple).
  Rng rng(7);
  OngoingRelation r = MakeBase(rng, "A_", 24);
  OngoingRelation s = MakeBase(rng, "B_", 24);
  PlanPtr plan = Join(Scan(&r, "A"), Scan(&s, "B"),
                      Eq(Col("A_K"), Col("B_K")), "L", "R");
  auto reference = ReferenceExecute(plan);
  ASSERT_TRUE(reference.ok());
  const size_t expected = reference->size();
  ASSERT_GT(expected, TupleBatch::kDefaultCapacity / 16);
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
    for (size_t capacity : {size_t{1}, size_t{3}, size_t{64}}) {
      auto op = Compile(WithAlgorithm(plan, algorithm), ExecMode::kOngoing);
      ASSERT_TRUE(op.ok());
      EXPECT_EQ(DrainCountWithCapacity(**op, capacity), expected)
          << "algorithm " << static_cast<int>(algorithm) << " capacity "
          << capacity;
    }
  }
}

TEST(BatchBoundaryTest, ReopenRestartsTheStream) {
  // Materialized-view refresh depends on Open() fully resetting state.
  Rng rng(11);
  OngoingRelation r = MakeBase(rng, "A_", 20);
  OngoingRelation s = MakeBase(rng, "B_", 20);
  PlanPtr plan = Filter(Join(Scan(&r, "A"), Scan(&s, "B"),
                             And(Eq(Col("A_K"), Col("B_K")),
                                 OverlapsExpr(Col("A_VT"), Col("B_VT"))),
                             "L", "R"),
                        Lt(Col("A_ID"), Lit(int64_t{15})));
  auto op = Compile(plan, ExecMode::kOngoing);
  ASSERT_TRUE(op.ok());
  auto first = DrainToRelation(**op);
  auto second = DrainToRelation(**op);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->size(), 0u);
  EXPECT_EQ(Fingerprint(*first), Fingerprint(*second));
}

// --- parallel execution ------------------------------------------------------
// The morsel-driven parallel path (query/physical.h, ParallelOptions)
// must produce the same tuple multiset as the serial reference for
// every worker count, execution mode and join algorithm. Fingerprints
// are order-normalized (multisets), since tuple order across partition
// pipelines is unspecified.

class ParallelExecutorEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelExecutorEquivalenceTest, MatchesSerialInBothModes) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed * 104729 + 7);
  PlanFixture fx;
  PlanPtr plan = RandomPlan(rng, &fx, 3);

  auto reference = ReferenceExecute(plan);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::multiset<std::string> expected = Fingerprint(*reference);

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    // Tiny morsels and no serial fallback: even the 5-tuple base
    // relations split across several claims, so partition handoff,
    // empty partitions and suspension all get exercised.
    ParallelOptions options = ForcedParallel(workers, 7);
    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
      PlanPtr forced = WithAlgorithm(plan, algorithm);
      auto parallel = Execute(forced, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_EQ(Fingerprint(*parallel), expected)
          << "ongoing mode, workers " << workers << ", algorithm "
          << static_cast<int>(algorithm);
      for (TimePoint rt : {TimePoint{15}, TimePoint{140}}) {
        auto reference_at = ReferenceExecuteAt(plan, rt);
        ASSERT_TRUE(reference_at.ok()) << reference_at.status();
        auto parallel_at = ExecuteAtReferenceTime(forced, rt, options);
        ASSERT_TRUE(parallel_at.ok()) << parallel_at.status();
        EXPECT_EQ(Fingerprint(*parallel_at), Fingerprint(*reference_at))
            << "clifford mode at rt=" << rt << ", workers " << workers
            << ", algorithm " << static_cast<int>(algorithm);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ParallelExecutorEquivalenceTest,
                         ::testing::ValuesIn(FuzzSeeds(20)));

TEST(ParallelExecutorTest, GatherTreeSurvivesReopen) {
  // Materialized-view-style reuse of a parallel tree: Open/drain/Close
  // twice on the same gather root.
  Rng rng(17);
  OngoingRelation r = MakeBase(rng, "A_", 40);
  OngoingRelation s = MakeBase(rng, "B_", 40);
  PlanPtr plan = Join(Scan(&r, "A"), Scan(&s, "B"),
                      Eq(Col("A_K"), Col("B_K")), "L", "R");
  auto op = Compile(plan, ExecMode::kOngoing, 0, ForcedParallel(3, 5));
  ASSERT_TRUE(op.ok());
  auto first = DrainToRelation(**op);
  auto second = DrainToRelation(**op);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->size(), 0u);
  EXPECT_EQ(Fingerprint(*first), Fingerprint(*second));
}

TEST(ParallelExecutorTest, SerialFallbackKicksInOnSmallInputs) {
  // Below min_parallel_tuples the 4-argument Compile must hand back the
  // serial tree; a bare scan then still reports its borrowed relation
  // (the gather operator never does).
  Rng rng(3);
  OngoingRelation r = MakeBase(rng, "A_", 10);
  PlanPtr plan = Scan(&r, "A");
  ParallelOptions options;
  options.workers = 4;
  options.min_parallel_tuples = 1000;
  auto op = Compile(plan, ExecMode::kOngoing, 0, options);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ((*op)->BorrowedRelation(), &r);
  options.min_parallel_tuples = 0;
  auto parallel_op = Compile(plan, ExecMode::kOngoing, 0, options);
  ASSERT_TRUE(parallel_op.ok());
  EXPECT_EQ((*parallel_op)->BorrowedRelation(), nullptr);
}

// --- allocation bounds ------------------------------------------------------

TEST(BatchedEmissionAllocTest, EmitDominatedJoinStaysNearOneAllocPerTuple) {
  // A string-keyed equi join whose output is large relative to the
  // inputs: the emit path dominates. Per emitted tuple the engine should
  // pay one heap allocation (the drained tuple's value vector) — the
  // shared string payloads and the recycled batch slots eliminate the
  // per-value copies, and the flat hash table eliminates the per-build-
  // tuple node. The pre-batched executor paid ~6 allocations per
  // emitted tuple on this shape.
  const size_t n = 1500;
  Schema schema({{"K", ValueType::kString},
                 {"P", ValueType::kString},
                 {"VT", ValueType::kOngoingInterval}});
  auto make = [&](uint64_t seed, const std::string& prefix) {
    Rng rng(seed);
    OngoingRelation r(schema);
    for (size_t i = 0; i < n; ++i) {
      // Long keys (beyond small-string optimization) from a pool sized
      // so the join emits roughly one tuple per probe.
      std::string key = "join-key-component-" + std::to_string(i % n);
      EXPECT_TRUE(r.Insert({Value::String(std::move(key)),
                            Value::String(prefix +
                                          "-payload-string-beyond-sso-" +
                                          std::to_string(rng.Uniform(0, 9))),
                            Value::Ongoing(OngoingInterval::SinceUntilNow(
                                rng.Uniform(0, 50)))})
                      .ok());
    }
    return r;
  };
  OngoingRelation left = make(1, "left");
  OngoingRelation right = make(2, "right");
  ExprPtr pred = Eq(Col("L.K"), Col("R.K"));

  // Warm-up outside the measured scope (thread-local lazies, etc.).
  auto warm = HashJoin(left, right, pred, "L", "R");
  ASSERT_TRUE(warm.ok());
  const size_t out_size = warm->size();
  ASSERT_EQ(out_size, n);

  AllocScope scope;
  auto result = HashJoin(left, right, pred, "L", "R");
  uint64_t allocs = scope.count();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), out_size);
  // One vector per drained tuple, plus O(1) table/batch overhead and the
  // result relation's geometric growth.
  EXPECT_LT(allocs, 2.0 * static_cast<double>(out_size))
      << "allocs=" << allocs << " for " << out_size << " emitted tuples";
}

// A rejected join pair costs no heap allocation: the residual's pair
// atoms run on the two stored tuples (no copy into a batch slot) and
// the ongoing Allen predicate computes its St in one allocation-free
// pass. Doubling the inputs quadruples the key-equal pairs, nearly all
// rejected; the drain's allocation count must stay flat.
TEST(BatchedJoinAllocationTest, RejectedPairsDoNotAllocate) {
  // One key, so every pair is key-equal. Left VTs are [s, now) starting
  // far after every right VT ends, so `L.VT overlaps R.VT` rejects every
  // pair except the few right tuples placed late — and the ongoing end
  // keeps the predicate off the constant fast paths.
  auto make_left = [](size_t n) {
    OngoingRelation r(Schema(
        {{"K", ValueType::kInt64}, {"VT", ValueType::kOngoingInterval}}));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(r.Insert({Value::Int64(0),
                            Value::Ongoing(OngoingInterval::SinceUntilNow(
                                1000000 + static_cast<TimePoint>(i)))})
                      .ok());
    }
    return r;
  };
  auto make_right = [](size_t n) {
    OngoingRelation r(Schema(
        {{"K", ValueType::kInt64}, {"VT", ValueType::kOngoingInterval}}));
    for (size_t i = 0; i < n; ++i) {
      const TimePoint s =
          i < 3 ? 2000000 : static_cast<TimePoint>(i % 1000);
      EXPECT_TRUE(r.Insert({Value::Int64(0),
                            Value::Ongoing(OngoingInterval::Fixed(s, s + 5))})
                      .ok());
    }
    return r;
  };
  // Allocations of one full drain, pulling batches into one recycled
  // TupleBatch (no DrainToRelation); also reports the rows emitted.
  auto drain_allocs = [&](size_t n, size_t* rows) {
    OngoingRelation left = make_left(n);
    OngoingRelation right = make_right(n);
    PlanPtr plan = Join(Scan(&left, "L"), Scan(&right, "R"),
                        And(Eq(Col("L.K"), Col("R.K")),
                            OverlapsExpr(Col("L.VT"), Col("R.VT"))),
                        "L", "R", JoinAlgorithm::kHash);
    Result<PhysicalOpPtr> op = Compile(plan, ExecMode::kOngoing);
    EXPECT_TRUE(op.ok());
    TupleBatch batch;
    // Warm-up drain: batch slots and the build table reach capacity.
    EXPECT_TRUE((*op)->Open().ok());
    while ((*op)->Next(&batch).ok() && !batch.empty()) {
    }
    (*op)->Close();
    AllocScope scope;
    *rows = 0;
    EXPECT_TRUE((*op)->Open().ok());
    while (true) {
      EXPECT_TRUE((*op)->Next(&batch).ok());
      if (batch.empty()) break;
      *rows += batch.size();
    }
    (*op)->Close();
    return scope.count();
  };
  constexpr size_t kSmall = 150;
  size_t rows_small = 0, rows_large = 0;
  const uint64_t small = drain_allocs(kSmall, &rows_small);
  const uint64_t large = drain_allocs(2 * kSmall, &rows_large);
  // The late right tuples overlap every left tuple.
  EXPECT_EQ(rows_small, 3 * kSmall);
  EXPECT_EQ(rows_large, 3 * 2 * kSmall);
  const double extra_rejected =
      static_cast<double>((2 * kSmall) * (2 * kSmall) - rows_large) -
      static_cast<double>(kSmall * kSmall - rows_small);
  const double extra_allocs =
      static_cast<double>(large) - static_cast<double>(small);
  EXPECT_LT(extra_allocs, extra_rejected / 100.0)
      << "allocations " << small << " -> " << large << " for "
      << extra_rejected << " extra rejected pairs";
}

// A rejected stored tuple costs no heap allocation: a scan tests it
// with the compiled predicate before claiming a batch slot, so it is
// never copied. DrainToRelation pulls through a fresh batch, whose slots
// allocate their value vectors on first use, so a scan that copied
// before testing would allocate once per rejected tuple below the batch
// capacity. Doubling the relation doubles the rejected tuples while the
// three survivors stay; the drain's allocation count must stay flat, in
// both modes.
TEST(BatchedScanAllocationTest, RejectedTuplesDoNotAllocate) {
  // Every row but the last three has K = 0 and a string payload; the
  // rows' VTs are [s, now) with s spread over [0, 1000), so most of
  // them overlap the probe and `K = 1` rejects them.
  auto make = [](size_t n) {
    OngoingRelation r(Schema({{"K", ValueType::kInt64},
                              {"S", ValueType::kString},
                              {"VT", ValueType::kOngoingInterval}}));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(
          r.Insert({Value::Int64(i + 3 >= n ? 1 : 0),
                    Value::String("payload"),
                    Value::Ongoing(OngoingInterval::SinceUntilNow(
                        static_cast<TimePoint>(i * 7 % 1000)))})
              .ok());
    }
    return r;
  };
  const ExprPtr pred =
      And(Eq(Col("K"), Lit(int64_t{1})),
          OverlapsExpr(Col("VT"), Lit(OngoingInterval::Fixed(500, 2000))));
  auto drain_allocs = [&](size_t n, ExecMode mode, size_t* rows) {
    OngoingRelation r = make(n);
    PlanPtr plan = Filter(Scan(&r, "R"), pred);
    Result<PhysicalOpPtr> op = Compile(plan, mode, 1500);
    EXPECT_TRUE(op.ok());
    // Warm-up drain: the scratch sets reach capacity.
    EXPECT_TRUE(DrainToRelation(**op).ok());
    AllocScope scope;
    Result<OngoingRelation> result = DrainToRelation(**op);
    const uint64_t allocs = scope.count();
    EXPECT_TRUE(result.ok());
    *rows = result.ok() ? result->size() : 0;
    return allocs;
  };
  constexpr size_t kSmall = 150;
  static_assert(2 * kSmall < TupleBatch::kDefaultCapacity);
  for (ExecMode mode : {ExecMode::kOngoing, ExecMode::kAtReferenceTime}) {
    SCOPED_TRACE(::testing::Message() << "mode " << static_cast<int>(mode));
    size_t rows_small = 0, rows_large = 0;
    const uint64_t small = drain_allocs(kSmall, mode, &rows_small);
    const uint64_t large = drain_allocs(2 * kSmall, mode, &rows_large);
    EXPECT_EQ(rows_small, 3u);
    EXPECT_EQ(rows_large, 3u);
    const double extra_allocs =
        static_cast<double>(large) - static_cast<double>(small);
    EXPECT_LT(extra_allocs, static_cast<double>(kSmall) / 100.0)
        << "allocations " << small << " -> " << large << " for " << kSmall
        << " extra rejected tuples";
  }
}

}  // namespace
}  // namespace ongoingdb
