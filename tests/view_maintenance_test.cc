// Tests of delta-driven materialized-view maintenance
// (query/view_maintenance.h, query/materialized_view.h):
//
//  * the ModificationLog primitive — dense sequences, bounded ring
//    retention, replay refusal below retention, identity-bound
//    copy/move semantics;
//  * the Torp modifications log precise close/insert deltas that replay
//    to the exact post-state;
//  * deterministic refresh-mode contracts: kNoop with nothing logged,
//    kDelta for small batches through filter/project/join plans (the
//    join probing the maintainer-owned interval index), kRecompute when
//    the batch is large, the log was trimmed, or the log was detached
//    by a wholesale replacement;
//  * Refresh under a changed QueryContext rebinds the cached tree
//    instead of recompiling — an index-NL join's warm inner index
//    survives (the index.build failpoint proves no rebuild happens);
//  * tuples that print alike stay distinct through a delta refresh;
//  * the randomized delta-vs-recompute equivalence suite: random plans
//    x random modification batches, the incrementally maintained view
//    fingerprint-equal to the reference evaluator, fresh serial and
//    forced-parallel executions, and instantiation at random reference
//    times (shared harness: tests/testing/plan_fuzz.h; replay failures
//    with ONGOINGDB_TEST_SEED=<seed>).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "query/materialized_view.h"
#include "query/view_maintenance.h"
#include "relation/modifications.h"
#include "testing/plan_fuzz.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeBase;
using plan_fuzz::MakeMixedRelation;
using plan_fuzz::PlanFixture;
using plan_fuzz::RandomPlan;
using plan_fuzz::ReferenceExecute;
using plan_fuzz::ReferenceExecuteAt;
using plan_fuzz::StringPool;

Tuple MakeRow(int64_t id) {
  return Tuple({Value::Int64(id)});
}

// --- ModificationLog unit tests ---------------------------------------------

TEST(ModificationLogTest, DenseSequencesAndRetrieval) {
  ModificationLog log;
  EXPECT_EQ(log.next_seq(), 1u);
  EXPECT_EQ(log.first_available_seq(), 1u);
  EXPECT_EQ(log.Append(Modification::Kind::kInsert, MakeRow(1)), 1u);
  EXPECT_EQ(log.Append(Modification::Kind::kRemove, MakeRow(2)), 2u);
  EXPECT_EQ(log.Append(Modification::Kind::kInsert, MakeRow(3)), 3u);
  EXPECT_EQ(log.next_seq(), 4u);
  EXPECT_EQ(log.size(), 3u);

  std::vector<const Modification*> entries;
  ASSERT_TRUE(log.EntriesSince(1, &entries));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->seq, 1u);
  EXPECT_EQ(entries[0]->kind, Modification::Kind::kInsert);
  EXPECT_EQ(entries[2]->seq, 3u);

  // A cursor in the middle replays only the suffix; a current cursor
  // replays nothing (still a success).
  entries.clear();
  ASSERT_TRUE(log.EntriesSince(3, &entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->kind, Modification::Kind::kInsert);
  entries.clear();
  ASSERT_TRUE(log.EntriesSince(4, &entries));
  EXPECT_TRUE(entries.empty());
}

TEST(ModificationLogTest, RingTrimsAndRefusesReplayBelowRetention) {
  ModificationLog log(4);
  for (int64_t i = 0; i < 10; ++i) {
    log.Append(Modification::Kind::kInsert, MakeRow(i));
  }
  EXPECT_EQ(log.next_seq(), 11u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.first_available_seq(), 7u);

  std::vector<const Modification*> entries;
  ASSERT_TRUE(log.EntriesSince(7, &entries));
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front()->seq, 7u);
  EXPECT_EQ(entries.back()->seq, 10u);

  // Below retention: refused, and nothing is appended.
  entries.clear();
  entries.push_back(nullptr);  // pre-existing content must survive
  EXPECT_FALSE(log.EntriesSince(6, &entries));
  EXPECT_EQ(entries.size(), 1u);

  // Capacity clamps to >= 1 and the degenerate ring still sequences.
  ModificationLog tiny(0);
  EXPECT_EQ(tiny.Append(Modification::Kind::kInsert, MakeRow(1)), 1u);
  EXPECT_EQ(tiny.Append(Modification::Kind::kInsert, MakeRow(2)), 2u);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.first_available_seq(), 2u);
}

TEST(ModificationLogTest, RelationHooksLogAppendsAndSwapRemoves) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  ASSERT_TRUE(r.Insert({Value::Int64(0),
                        Value::Ongoing(OngoingInterval::SinceUntilNow(0))})
                  .ok());
  r.EnableModificationLog();
  ASSERT_NE(r.modification_log(), nullptr);
  // Pre-log inserts are not retroactively logged.
  EXPECT_EQ(r.modification_log()->size(), 0u);

  ASSERT_TRUE(r.Insert({Value::Int64(1),
                        Value::Ongoing(OngoingInterval::SinceUntilNow(5))})
                  .ok());
  r.SwapRemove(0);
  ModificationLog* log = r.modification_log();
  ASSERT_EQ(log->size(), 2u);
  std::vector<const Modification*> entries;
  ASSERT_TRUE(log->EntriesSince(1, &entries));
  EXPECT_EQ(entries[0]->kind, Modification::Kind::kInsert);
  EXPECT_EQ(entries[0]->tuple.value(0).AsInt64(), 1);
  EXPECT_EQ(entries[1]->kind, Modification::Kind::kRemove);
  EXPECT_EQ(entries[1]->tuple.value(0).AsInt64(), 0);

  // The log is bound to the relation's identity: a copy starts without
  // one, copy-assignment drops the target's, moves carry it along.
  OngoingRelation copy(r);
  EXPECT_EQ(copy.modification_log(), nullptr);
  OngoingRelation moved(std::move(r));
  EXPECT_EQ(moved.modification_log(), log);
  OngoingRelation target;
  target.EnableModificationLog();
  target = copy;
  EXPECT_EQ(target.modification_log(), nullptr);
}

// Replays a log suffix onto a plain copy of the pre-state and checks it
// reproduces the post-state — the property view maintenance relies on.
TEST(ModificationLogTest, TemporalModificationsReplayToPostState) {
  Rng rng(7);
  OngoingRelation r = MakeBase(rng, "T_", 30);
  OngoingRelation before(r);  // plain copy, no log
  r.EnableModificationLog();
  const uint64_t since = r.modification_log()->next_seq();

  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(100), Value::Int64(2),
                              Value::String(StringPool()[0]),
                              Value::Ongoing(OngoingInterval::SinceUntilNow(0))},
                             3, 40)
                  .ok());
  auto deleted = TemporalDelete(&r, 3, 55, [](const Tuple& t) {
    return t.value(0).AsInt64() < 8;
  });
  ASSERT_TRUE(deleted.ok());
  EXPECT_GT(*deleted, 0u);
  auto updated = TemporalUpdate(
      &r, 3, 70,
      [](const Tuple& t) { return t.value(1).AsInt64() == 3; },
      [](const Tuple& t) {
        std::vector<Value> values = t.values();
        values[2] = Value::String(StringPool()[1]);
        return values;
      });
  ASSERT_TRUE(updated.ok());

  // The log survived the rebuild-style mutations...
  ModificationLog* log = r.modification_log();
  ASSERT_NE(log, nullptr);
  std::vector<const Modification*> entries;
  ASSERT_TRUE(log->EntriesSince(since, &entries));
  ASSERT_FALSE(entries.empty());

  // ...and replaying it onto the pre-state reproduces the post-state.
  for (const Modification* m : entries) {
    if (m->kind == Modification::Kind::kInsert) {
      before.AppendUnchecked(m->tuple);
    } else {
      const std::string want = m->tuple.ToString();
      bool found = false;
      for (size_t i = 0; i < before.size(); ++i) {
        if (before.tuple(i).ToString() == want) {
          before.SwapRemove(i);
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "unmatched removal: " << want;
    }
  }
  EXPECT_EQ(Fingerprint(before), Fingerprint(r));
}

// --- deterministic refresh-mode contracts -----------------------------------

class ViewMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoint::DisarmAll(); }
  void TearDown() override { Failpoint::DisarmAll(); }

  static std::vector<Value> Row(int64_t id, int64_t k, const std::string& s) {
    return {Value::Int64(id), Value::Int64(k), Value::String(s),
            Value::Ongoing(OngoingInterval::SinceUntilNow(0))};
  }

  static void ExpectMatchesReference(const MaterializedView& view,
                                     const PlanPtr& plan) {
    auto reference = ReferenceExecute(plan);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(Fingerprint(view.ongoing_result()), Fingerprint(*reference));
  }
};

TEST_F(ViewMaintenanceTest, TryCreateRequiresLoggedBases) {
  Rng rng(1);
  OngoingRelation logless = MakeBase(rng, "A_", 10);
  EXPECT_EQ(ViewDeltaMaintainer::TryCreate(Scan(&logless, "R")), nullptr);
  logless.EnableModificationLog();
  auto m = ViewDeltaMaintainer::TryCreate(Scan(&logless, "R"));
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->ready());  // un-ready until a Reseed anchors it
}

TEST_F(ViewMaintenanceTest, FilterProjectPlanRefreshesByDelta) {
  Rng rng(2);
  OngoingRelation r = MakeBase(rng, "B_", 200);
  r.EnableModificationLog();
  PlanPtr plan =
      ProjectPlan(Filter(Scan(&r, "R"), Lt(Col("B_ID"), Lit(int64_t{150}))),
                  {"B_ID", "B_S", "B_VT"});
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Nothing logged since creation: refresh is a no-op.
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kNoop);

  // A single insert that passes the filter patches the result in place.
  ASSERT_TRUE(TemporalInsert(&r, Row(7, 1, StringPool()[0]), 3, 40).ok());
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);

  // An insert the filter rejects still consumes the log (stays kDelta,
  // result unchanged up to the reference).
  ASSERT_TRUE(TemporalInsert(&r, Row(170, 1, StringPool()[1]), 3, 40).ok());
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);

  // A close (valid-time delete) flows through as remove + insert.
  auto deleted = TemporalDelete(&r, 3, 60, [](const Tuple& t) {
    return t.value(0).AsInt64() < 10;
  });
  ASSERT_TRUE(deleted.ok());
  EXPECT_GT(*deleted, 0u);
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);

  // An update closes and re-inserts; still O(|delta|). The filter is
  // narrow (a handful of IDs) so the batch stays under the cost gate's
  // pending-fraction guard.
  auto updated = TemporalUpdate(
      &r, 3, 70,
      [](const Tuple& t) {
        int64_t id = t.value(0).AsInt64();
        return id >= 20 && id < 25;
      },
      [](const Tuple& t) {
        std::vector<Value> values = t.values();
        values[2] = Value::String(StringPool()[3]);
        return values;
      });
  ASSERT_TRUE(updated.ok());
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);

  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kNoop);
}

// Tuples that print alike stay distinct through a delta refresh:
// ("a, b", "c") and ("a", "b, c") render the same row, and so do the
// doubles 0.1 and 0.1000001. The rows are compared by value, since
// their printed forms collide too.
TEST_F(ViewMaintenanceTest, DeltaRefreshKeepsRowsThatPrintAlike) {
  OngoingRelation r(Schema({{"S1", ValueType::kString},
                            {"S2", ValueType::kString},
                            {"D", ValueType::kDouble}}));
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(r.Insert({Value::String("filler"),
                          Value::String(std::to_string(i)), Value::Double(1)})
                    .ok());
  }
  r.EnableModificationLog();
  PlanPtr plan = ProjectPlan(Scan(&r, "R"), {"S1", "S2", "D"});
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto expect_rows_of_execute = [&] {
    auto want = Execute(plan);
    ASSERT_TRUE(want.ok()) << want.status();
    std::vector<Tuple> rest;
    for (const Tuple& t : want->tuples()) rest.push_back(t);
    ASSERT_EQ(view->ongoing_result().size(), rest.size());
    for (const Tuple& t : view->ongoing_result().tuples()) {
      auto it = std::find(rest.begin(), rest.end(), t);
      ASSERT_NE(it, rest.end()) << "unexpected row " << t.ToString();
      rest.erase(it);
    }
  };

  const std::vector<std::vector<Value>> alike = {
      {Value::String("a, b"), Value::String("c"), Value::Double(0.5)},
      {Value::String("a"), Value::String("b, c"), Value::Double(0.5)},
      {Value::String("x"), Value::String("y"), Value::Double(0.1)},
      {Value::String("x"), Value::String("y"), Value::Double(0.1000001)}};
  ASSERT_EQ(Tuple(alike[0]).ToString(), Tuple(alike[1]).ToString());
  ASSERT_EQ(Tuple(alike[2]).ToString(), Tuple(alike[3]).ToString());
  for (const std::vector<Value>& values : alike) {
    ASSERT_TRUE(r.Insert(values).ok());
  }
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  expect_rows_of_execute();

  // Removing the second row of each pair removes that row, not the row
  // it prints like.
  for (size_t k : {size_t{1}, size_t{3}}) {
    for (size_t i = 0; i < r.size(); ++i) {
      if (r.tuple(i).values() == alike[k]) {
        r.SwapRemove(i);
        break;
      }
    }
  }
  ASSERT_EQ(r.size(), 42u);
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  expect_rows_of_execute();
}

TEST_F(ViewMaintenanceTest, JoinPlanRefreshesByDeltaThroughTheIndexedInner) {
  Rng rng(3);
  OngoingRelation left = MakeBase(rng, "L_", 60);
  OngoingRelation right = MakeBase(rng, "R_", 60);
  left.EnableModificationLog();
  right.EnableModificationLog();
  // The overlaps conjunct over a bare base inner is index-eligible, so
  // the maintainer probes its owned interval index for left-side deltas.
  PlanPtr plan = Join(Scan(&left, "L"), Scan(&right, "R"),
                      OverlapsExpr(Col("L_VT"), Col("R_VT")), "L", "R");
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Left-side inserts ride the dL |x| R0 index-probe term.
  for (int64_t id = 100; id < 103; ++id) {
    ASSERT_TRUE(
        TemporalInsert(&left, Row(id, id % 5, StringPool()[0]), 3, 30).ok());
  }
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);

  // Left-side close: removals must come out of the cached outer too.
  auto deleted = TemporalDelete(&left, 3, 50, [](const Tuple& t) {
    return t.value(0).AsInt64() == 100;
  });
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);

  // Right-side writes flow through the L0 |x| dR term. The cost gate may
  // pick either mode here (the term is linear in the cached outer);
  // correctness must hold regardless.
  ASSERT_TRUE(
      TemporalInsert(&right, Row(200, 1, StringPool()[2]), 3, 35).ok());
  ASSERT_TRUE(view->Refresh().ok());
  ExpectMatchesReference(*view, plan);

  // Simultaneous writes to both sides exercise the dL |x| dR cross term.
  ASSERT_TRUE(
      TemporalInsert(&left, Row(300, 2, StringPool()[1]), 3, 20).ok());
  ASSERT_TRUE(
      TemporalInsert(&right, Row(301, 2, StringPool()[1]), 3, 20).ok());
  ASSERT_TRUE(view->Refresh().ok());
  ExpectMatchesReference(*view, plan);
}

TEST_F(ViewMaintenanceTest, LargeBatchFallsBackToRecompute) {
  Rng rng(4);
  OngoingRelation r = MakeBase(rng, "C_", 40);
  r.EnableModificationLog();
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("C_ID"), Lit(int64_t{1000})));
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // 30 inserts against 40 base tuples blow the pending-fraction cap.
  for (int64_t id = 500; id < 530; ++id) {
    ASSERT_TRUE(TemporalInsert(&r, Row(id, 0, StringPool()[0]), 3, 10).ok());
  }
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kRecompute);
  ExpectMatchesReference(*view, plan);

  // The recompute re-anchored the maintainer: the next small write is
  // incremental again.
  ASSERT_TRUE(TemporalInsert(&r, Row(900, 0, StringPool()[0]), 3, 10).ok());
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);
}

TEST_F(ViewMaintenanceTest, TrimmedLogFallsBackToRecompute) {
  Rng rng(5);
  OngoingRelation r = MakeBase(rng, "D_", 50);
  r.EnableModificationLog(/*capacity=*/4);
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("D_ID"), Lit(int64_t{1000})));
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Ten writes through a four-entry ring trim past the view's cursor.
  for (int64_t id = 600; id < 610; ++id) {
    ASSERT_TRUE(TemporalInsert(&r, Row(id, 0, StringPool()[1]), 3, 10).ok());
  }
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kRecompute);
  ExpectMatchesReference(*view, plan);

  // Within retention again: incremental.
  ASSERT_TRUE(TemporalInsert(&r, Row(700, 0, StringPool()[1]), 3, 10).ok());
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);
}

TEST_F(ViewMaintenanceTest, DetachedLogFallsBackAndReattaches) {
  Rng rng(6);
  OngoingRelation r = MakeBase(rng, "E_", 30);
  r.EnableModificationLog();
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("E_ID"), Lit(int64_t{1000})));
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Wholesale replacement: copy-assignment drops the log, which the
  // maintainer must detect as staleness it cannot replay.
  Rng rng2(60);
  r = MakeBase(rng2, "E_", 25);
  EXPECT_EQ(r.modification_log(), nullptr);
  r.EnableModificationLog();
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kRecompute);
  ExpectMatchesReference(*view, plan);

  // The recompute re-anchored to the new log: deltas flow again.
  ASSERT_TRUE(TemporalInsert(&r, Row(800, 0, StringPool()[2]), 3, 10).ok());
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);
}

TEST_F(ViewMaintenanceTest, RefreshObservesLifecycleAndLeavesResultIntact) {
  Rng rng(8);
  OngoingRelation r = MakeBase(rng, "F_", 80);
  r.EnableModificationLog();
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("F_ID"), Lit(int64_t{1000})));
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::multiset<std::string> before = Fingerprint(view->ongoing_result());

  ASSERT_TRUE(TemporalInsert(&r, Row(111, 0, StringPool()[0]), 3, 10).ok());

  // Cancellation on the delta path: typed error, result pre-delta.
  QueryContext ctx;
  ctx.Cancel();
  EXPECT_EQ(view->Refresh(&ctx).code(), StatusCode::kCancelled);
  EXPECT_EQ(Fingerprint(view->ongoing_result()), before);

  // A starved budget surfaces and also leaves the result pre-delta.
  ctx.Reset();
  ctx.SetMemoryBudget(1);
  EXPECT_EQ(view->Refresh(&ctx).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Fingerprint(view->ongoing_result()), before);
  EXPECT_EQ(ctx.memory_used(), 0u);

  // Recovered context: the SAME pending delta applies and converges.
  ctx.Reset();
  ctx.SetMemoryBudget(0);
  ASSERT_TRUE(view->Refresh(&ctx).ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  ExpectMatchesReference(*view, plan);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

// Regression: Refresh used to recompile the physical tree whenever the
// caller's context differed from the compile-time one, silently
// discarding the warm IntervalIndex of an index-NL join's inner side.
// With the index.build failpoint armed, any rebuild fails the refresh —
// so a passing refresh under a NEW context proves the tree was rebound,
// not recompiled.
TEST_F(ViewMaintenanceTest, RefreshUnderNewContextKeepsTheWarmIndex) {
  // Logless bases: the view takes the full path through its cached tree.
  OngoingRelation outer = MakeMixedRelation(8, "O_", 20);
  OngoingRelation r = MakeMixedRelation(9, "", 40);
  PlanPtr plan = Join(Scan(&outer, "O"), Scan(&r, "R"),
                      OverlapsExpr(Col("O_VT"), Col("VT")), "L", "R",
                      JoinAlgorithm::kIndexNL);
  auto view = MaterializedView::Create(plan);  // builds the index, disarmed
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::multiset<std::string> want = Fingerprint(view->ongoing_result());

  {
    ScopedFailpoint guard("index.build", "always");
    QueryContext ctx;
    Status st = view->Refresh(&ctx);
    ASSERT_TRUE(st.ok()) << st.ToString();  // rebound, index not rebuilt
    EXPECT_EQ(Fingerprint(view->ongoing_result()), want);

    // A second context switch back to ctx-less serving also rebinds.
    ASSERT_TRUE(view->Refresh().ok());
    EXPECT_EQ(Fingerprint(view->ongoing_result()), want);
  }

  // Inner base-data changes still invalidate the index via its
  // fingerprint: the next refresh rebuilds (and the failpoint catches
  // it).
  ASSERT_TRUE(
      r.Insert({Value::Int64(999),
                Value::Ongoing(OngoingInterval::Fixed(40, 50)),
                Value::Interval(FixedInterval{40, 50})})
          .ok());
  {
    ScopedFailpoint guard("index.build", "always");
    EXPECT_FALSE(view->Refresh().ok());  // rebuild attempted and injected
  }
  ASSERT_TRUE(view->Refresh().ok());
  auto reference = ReferenceExecute(plan);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*reference));
}

// --- randomized delta-vs-recompute equivalence ------------------------------

class ViewMaintenanceFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { Failpoint::DisarmAll(); }
  void TearDown() override { Failpoint::DisarmAll(); }
};

// Applies a random Torp modification batch to the fixture's base
// relations. vt_index 3 is MakeBase's VT column.
void ApplyRandomModifications(Rng& rng, PlanFixture* fx, int64_t* next_id) {
  const size_t count = static_cast<size_t>(rng.Uniform(1, 3));
  for (size_t i = 0; i < count; ++i) {
    OngoingRelation* r =
        fx->relations[static_cast<size_t>(rng.Uniform(
                          0, static_cast<int64_t>(fx->relations.size()) - 1))]
            .get();
    const TimePoint tc = rng.Uniform(0, 120);
    const int64_t k = rng.Uniform(0, 4);
    switch (rng.Uniform(0, 2)) {
      case 0: {
        ASSERT_TRUE(
            TemporalInsert(
                r,
                {Value::Int64((*next_id)++), Value::Int64(k),
                 Value::String(StringPool()[static_cast<size_t>(
                     rng.Uniform(0, 3))]),
                 Value::Ongoing(OngoingInterval::SinceUntilNow(0))},
                3, tc)
                .ok());
        break;
      }
      case 1: {
        auto deleted = TemporalDelete(r, 3, tc, [k](const Tuple& t) {
          return t.value(1).AsInt64() == k;
        });
        ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
        break;
      }
      default: {
        auto updated = TemporalUpdate(
            r, 3, tc, [k](const Tuple& t) { return t.value(1).AsInt64() == k; },
            [&rng](const Tuple& t) {
              std::vector<Value> values = t.values();
              values[2] = Value::String(
                  StringPool()[static_cast<size_t>(rng.Uniform(0, 3))]);
              return values;
            });
        ASSERT_TRUE(updated.ok()) << updated.status().ToString();
        break;
      }
    }
  }
}

TEST_P(ViewMaintenanceFuzzTest, DeltaRefreshEqualsRecomputeEverywhere) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed);
  PlanFixture fx;
  PlanPtr plan = RandomPlan(rng, &fx, 3);
  for (auto& rel : fx.relations) rel->EnableModificationLog();

  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  int64_t next_id = 1000;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ApplyRandomModifications(rng, &fx, &next_id);
    if (::testing::Test::HasFatalFailure()) return;

    ASSERT_TRUE(view->Refresh().ok());

    // The maintained view equals the reference evaluation of the
    // modified bases — whichever refresh mode the cost gate picked.
    auto reference = ReferenceExecute(plan);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::multiset<std::string> want = Fingerprint(*reference);
    EXPECT_EQ(Fingerprint(view->ongoing_result()), want);

    // ...and equals fresh serial and forced-parallel executions.
    auto serial = Execute(plan);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(Fingerprint(*serial), want);
    auto parallel = Execute(plan, ForcedParallel(4, 3));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(Fingerprint(*parallel), want);

    // Instantiation of the patched ongoing result at a random reference
    // time equals Clifford evaluation at that time.
    const TimePoint rt = rng.Uniform(0, 120);
    auto reference_at = ReferenceExecuteAt(plan, rt);
    ASSERT_TRUE(reference_at.ok()) << reference_at.status().ToString();
    EXPECT_TRUE(
        InstantiatedRelationsEqual(view->InstantiateAt(rt), *reference_at))
        << "instantiation mismatch at rt=" << rt;
  }

  // A forced full recompute lands on the same result the incremental
  // path maintained.
  const std::multiset<std::string> maintained =
      Fingerprint(view->ongoing_result());
  ASSERT_TRUE(view->RefreshFull().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kRecompute);
  EXPECT_EQ(Fingerprint(view->ongoing_result()), maintained);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewMaintenanceFuzzTest,
                         ::testing::ValuesIn(FuzzSeeds(10)));

}  // namespace
}  // namespace ongoingdb
