// Fault-injection suite for the query-lifecycle contract
// (query/exec_context.h, util/failpoint.h, docs/DESIGN.md "Query
// lifecycle"): randomized plans × exec modes × worker counts are run
// with injected cancellations, expired deadlines, tiny memory budgets,
// and armed failpoints at every hazardous seam, asserting that
//
//  * the error surfaces as a clean typed Status (no hang, no crash);
//  * every producer task is joined before the error returns (TSan
//    covers the proof);
//  * memory accounting drains back to zero (no leaked charges);
//  * after DisarmAll() + ctx.Reset(), reopening the SAME operator tree
//    produces exactly the reference result.
//
// The suite runs under ASan+UBSan and TSan in CI (satellite of the
// lifecycle PR); FailpointEnvSmoke additionally verifies the
// ONGOINGDB_FAILPOINTS environment activation path when CI sets it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "query/materialized_view.h"
#include "relation/modifications.h"
#include "server/session.h"
#include "testing/plan_fuzz.h"
#include "util/failpoint.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeBase;
using plan_fuzz::NamesOfType;
using plan_fuzz::PlanFixture;
using plan_fuzz::RandomPlan;
using plan_fuzz::ReferenceExecute;
using plan_fuzz::ReferenceExecuteAt;

bool IsInjectedFault(const Status& st) {
  return st.code() == StatusCode::kInternal &&
         st.message().find("failpoint") != std::string::npos;
}

// Every test starts and ends with all sites disarmed, so ambient
// ONGOINGDB_FAILPOINTS arming (the CI smoke job) cannot poison the
// deterministic scenarios, and a failed scenario cannot poison the next.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoint::DisarmAll(); }
  void TearDown() override {
    Failpoint::DisarmAll();
    Failpoint::SuspendAll(false);
  }
};

// --- QueryContext unit tests ------------------------------------------------

TEST_F(FaultInjectionTest, ContextCheckReportsTypedStatuses) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.Check().ok());

  ctx.Cancel();
  EXPECT_TRUE(ctx.IsCancelled());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
  ctx.Reset();
  EXPECT_TRUE(ctx.Check().ok());

  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  ctx.ClearDeadline();
  EXPECT_TRUE(ctx.Check().ok());
  ctx.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(ctx.Check().ok());

  ctx.Reset();
  ctx.SetMemoryBudget(100);
  EXPECT_TRUE(ctx.ChargeMemory(60).ok());
  EXPECT_EQ(ctx.memory_used(), 60u);
  // The failing charge is still recorded: the matching release keeps the
  // accounting exact.
  EXPECT_EQ(ctx.ChargeMemory(60).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.memory_used(), 120u);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kResourceExhausted);
  ctx.ReleaseMemory(120);
  EXPECT_EQ(ctx.memory_used(), 0u);
  EXPECT_TRUE(ctx.Check().ok());

  // Reset clears the accounting but keeps the budget limit.
  EXPECT_TRUE(ctx.ChargeMemory(90).ok());
  ctx.Cancel();
  ctx.Reset();
  EXPECT_EQ(ctx.memory_used(), 0u);
  EXPECT_FALSE(ctx.ChargeMemory(150).ok());
  ctx.Reset();
}

TEST_F(FaultInjectionTest, MemoryChargeReleasesOnDestructionAndReinit) {
  QueryContext ctx;
  ctx.SetMemoryBudget(1000);
  {
    MemoryCharge charge;
    charge.Init(&ctx);
    EXPECT_TRUE(charge.Add(400).ok());
    EXPECT_EQ(ctx.memory_used(), 400u);
    // Re-Init (a reopen after a failed run) releases the stale charge.
    charge.Init(&ctx);
    EXPECT_EQ(ctx.memory_used(), 0u);
    EXPECT_TRUE(charge.Add(250).ok());
  }
  EXPECT_EQ(ctx.memory_used(), 0u);  // destructor backstop
  MemoryCharge null_charge;
  null_charge.Init(nullptr);
  EXPECT_TRUE(null_charge.Add(1 << 30).ok());  // no-op without a context
}

TEST_F(FaultInjectionTest, LifecycleStatusHelpers) {
  EXPECT_TRUE(IsLifecycleStatus(Status::Cancelled("x")));
  EXPECT_TRUE(IsLifecycleStatus(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(IsLifecycleStatus(Status::ResourceExhausted("x")));
  EXPECT_FALSE(IsLifecycleStatus(Status::OK()));
  EXPECT_FALSE(IsLifecycleStatus(Status::Internal("x")));
  EXPECT_EQ(FriendlyLifecycleMessage(Status::Cancelled("x")),
            "query cancelled");
  EXPECT_EQ(FriendlyLifecycleMessage(Status::DeadlineExceeded("x")),
            "query timed out");
  EXPECT_EQ(FriendlyLifecycleMessage(Status::ResourceExhausted("x")),
            "query exceeded its memory budget");
}

// --- Failpoint unit tests ---------------------------------------------------

TEST_F(FaultInjectionTest, FailpointModes) {
  Failpoint& fp = Failpoint::GetOrCreate("test.modes");
  EXPECT_FALSE(fp.armed());
  EXPECT_FALSE(fp.ShouldFail());

  fp.ArmAlways();
  EXPECT_TRUE(fp.armed());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_EQ(fp.hits(), 2u);
  EXPECT_TRUE(IsInjectedFault(fp.Fail()));
  EXPECT_NE(fp.Fail().message().find("test.modes"), std::string::npos);

  fp.ArmAfterHits(3);
  EXPECT_EQ(fp.hits(), 0u);  // rearming resets the hit count
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());

  fp.Disarm();
  EXPECT_FALSE(fp.armed());
  EXPECT_FALSE(fp.ShouldFail());
}

TEST_F(FaultInjectionTest, FailpointProbabilityIsDeterministic) {
  Failpoint& fp = Failpoint::GetOrCreate("test.prob");
  auto sample = [&fp](double p, uint64_t seed, int n) {
    fp.ArmProbability(p, seed);
    std::vector<bool> fired;
    fired.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) fired.push_back(fp.ShouldFail());
    return fired;
  };
  // Same (p, seed) replays the same fault schedule.
  EXPECT_EQ(sample(0.3, 42, 200), sample(0.3, 42, 200));
  // p = 0 never fires, p = 1 always fires.
  std::vector<bool> never = sample(0.0, 7, 100);
  EXPECT_EQ(std::count(never.begin(), never.end(), true), 0);
  std::vector<bool> always = sample(1.0, 7, 100);
  EXPECT_EQ(std::count(always.begin(), always.end(), true), 100);
  // A middling p fires sometimes but not always.
  std::vector<bool> mixed = sample(0.5, 99, 400);
  auto fired = std::count(mixed.begin(), mixed.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 400);
  fp.Disarm();
}

TEST_F(FaultInjectionTest, FailpointSpecParsing) {
  Failpoint& fp = Failpoint::GetOrCreate("test.spec");
  EXPECT_TRUE(fp.ArmFromSpec("always").ok());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_TRUE(fp.ArmFromSpec("off").ok());
  EXPECT_FALSE(fp.armed());
  EXPECT_TRUE(fp.ArmFromSpec("after:2").ok());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_TRUE(fp.ArmFromSpec("prob:0.5:123").ok());
  EXPECT_TRUE(fp.armed());
  // Bad specs are rejected and leave the site disarmed.
  for (const char* bad : {"", "sometimes", "after:", "after:x", "prob:",
                          "prob:2.5", "prob:-1", "prob:0.5:zz"}) {
    EXPECT_FALSE(fp.ArmFromSpec(bad).ok()) << bad;
    EXPECT_FALSE(fp.armed()) << bad;
  }
}

TEST_F(FaultInjectionTest, FailpointRegistryAndSuspension) {
  // The library's planted sites are registered by static initialization.
  std::vector<std::string> names = Failpoint::RegisteredNames();
  for (const char* site : {"exec.open", "exec.next", "exec.materialize",
                           "gather.handoff", "index.build",
                           "repartition.route", "view.delta_apply"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), site), names.end())
        << "site not planted: " << site;
    EXPECT_NE(Failpoint::Find(site), nullptr);
  }
  EXPECT_EQ(Failpoint::Find("no.such.site"), nullptr);

  ScopedFailpoint guard("exec.open", "always");
  EXPECT_TRUE(guard.failpoint().armed());
  Failpoint::SuspendAll(true);
  EXPECT_FALSE(guard.failpoint().ShouldFail());  // suspended, still armed
  EXPECT_TRUE(guard.failpoint().armed());
  Failpoint::SuspendAll(false);
  EXPECT_TRUE(guard.failpoint().ShouldFail());
  Failpoint::DisarmAll();
  EXPECT_FALSE(guard.failpoint().armed());
}

TEST_F(FaultInjectionTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint guard("exec.next", "always");
    EXPECT_TRUE(Failpoint::Find("exec.next")->armed());
  }
  EXPECT_FALSE(Failpoint::Find("exec.next")->armed());
}

// --- environment activation (run by the CI smoke step) ----------------------

TEST(FailpointEnvSmoke, EnvArmedSiteFailsQueries) {
  const char* env = std::getenv("ONGOINGDB_FAILPOINTS");
  if (env == nullptr ||
      std::string(env).find("exec.open=always") == std::string::npos) {
    GTEST_SKIP()
        << "run with ONGOINGDB_FAILPOINTS=exec.open=always to exercise "
           "environment activation";
  }
  EXPECT_TRUE(Failpoint::Find("exec.open") != nullptr &&
              Failpoint::Find("exec.open")->armed());
  OngoingRelation r(Schema({{"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  ASSERT_TRUE(
      r.Insert({Value::Int64(1),
                Value::Ongoing(OngoingInterval::SinceUntilNow(0))})
          .ok());
  // A filter on top keeps the drain off the borrowed-scan shortcut, so
  // the root Open (and with it the armed site) is actually reached.
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("K"), Lit(int64_t{10})));
  auto result = Execute(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsInjectedFault(result.status()));
  // Suspension restores fault-free execution without touching the
  // environment arming.
  Failpoint::SuspendAll(true);
  EXPECT_TRUE(Execute(plan).ok());
  Failpoint::SuspendAll(false);
}

// --- randomized fault-injection sweeps --------------------------------------

struct ExecConfig {
  const char* name;
  size_t workers;  // 0 = serial Compile (no ParallelOptions)
  size_t morsel_size;
};

const ExecConfig kConfigs[] = {
    {"serial", 0, 0},
    {"parallel1", 1, 3},
    {"parallel2", 2, 3},
    {"parallel4", 4, 3},
};

Result<PhysicalOpPtr> CompileFor(const PlanPtr& plan, const ExecConfig& cfg,
                                 QueryContext* ctx) {
  if (cfg.workers == 0) {
    return Compile(plan, ExecMode::kOngoing, 0, ctx);
  }
  return Compile(plan, ExecMode::kOngoing, 0,
                 ForcedParallel(cfg.workers, cfg.morsel_size), ctx);
}

// One lifecycle scenario: run `arm` (arming failpoints and/or poisoning
// the context), drain the tree expecting either a clean typed error or —
// when the fault never got hit — the correct result; then disarm, reset,
// and reopen the SAME tree, which must produce exactly `want`.
void RunScenario(const char* label, PhysicalOperator& root, QueryContext& ctx,
                 const std::multiset<std::string>& want,
                 const std::function<void()>& arm,
                 bool expect_failure = false,
                 const std::function<void()>& settle = {}) {
  SCOPED_TRACE(label);
  arm();
  auto faulty = DrainToRelation(root, &ctx);
  if (!faulty.ok()) {
    const Status& st = faulty.status();
    EXPECT_TRUE(IsLifecycleStatus(st) || IsInjectedFault(st))
        << st.ToString();
  } else {
    EXPECT_FALSE(expect_failure) << "fault did not surface";
    EXPECT_EQ(Fingerprint(*faulty), want);
  }
  // All charges are released once the tree is closed (DrainToRelation
  // closes on every path).
  EXPECT_EQ(ctx.memory_used(), 0u);

  // Any concurrent faulting (the async canceller) must finish before the
  // context resets — otherwise a late Cancel() poisons the recovery run.
  if (settle) settle();
  Failpoint::DisarmAll();
  ctx.Reset();
  ctx.SetMemoryBudget(0);  // Reset keeps the budget limit; clear it here
  auto recovered = DrainToRelation(root, &ctx);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Fingerprint(*recovered), want);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

class LifecycleFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { Failpoint::DisarmAll(); }
  void TearDown() override {
    Failpoint::DisarmAll();
    Failpoint::SuspendAll(false);
  }
};

// Every lifecycle scenario on `plan`, compiled in each configuration;
// `want` is the reference result and `seed` seeds the random faults.
void SweepLifecycle(const PlanPtr& plan,
                    const std::multiset<std::string>& want, uint64_t seed) {
  for (const ExecConfig& cfg : kConfigs) {
    SCOPED_TRACE(cfg.name);
    QueryContext ctx;
    auto compiled = CompileFor(plan, cfg, &ctx);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    PhysicalOperator& root = **compiled;

    RunScenario("pre-cancelled", root, ctx, want, [&ctx] { ctx.Cancel(); },
                /*expect_failure=*/true);
    RunScenario("expired-deadline", root, ctx, want,
                [&ctx] {
                  ctx.SetDeadline(std::chrono::steady_clock::now() -
                                  std::chrono::milliseconds(1));
                },
                /*expect_failure=*/true);
    RunScenario("tiny-budget", root, ctx, want,
                [&ctx] { ctx.SetMemoryBudget(1); });

    // Every planted seam, in every trigger mode that can reach it. Sites
    // a given plan/config never reaches (no index, serial gather) simply
    // do not fire — the scenario then checks the correct result instead.
    // A bare-scan root in a serial tree is drained through the borrowed
    // shortcut without ever calling Open — the one shape exec.open
    // cannot reach.
    const bool open_reachable =
        plan->kind() != PlanKind::kScan || cfg.workers >= 2;
    RunScenario("fp-open-always", root, ctx, want,
                [] { Failpoint::Find("exec.open")->ArmAlways(); },
                /*expect_failure=*/open_reachable);
    RunScenario("fp-open-mid", root, ctx, want, [] {
      Failpoint::Find("exec.open")->ArmAfterHits(1);
    });
    RunScenario("fp-next-first", root, ctx, want, [] {
      Failpoint::Find("exec.next")->ArmAlways();
    });
    RunScenario("fp-next-mid", root, ctx, want, [] {
      Failpoint::Find("exec.next")->ArmAfterHits(2);
    });
    RunScenario("fp-next-prob", root, ctx, want, [seed] {
      Failpoint::Find("exec.next")->ArmProbability(0.3, seed);
    });
    RunScenario("fp-materialize", root, ctx, want, [] {
      Failpoint::Find("exec.materialize")->ArmAfterHits(1);
    });
    RunScenario("fp-handoff", root, ctx, want, [] {
      Failpoint::Find("gather.handoff")->ArmAfterHits(1);
    });
    RunScenario("fp-index-build", root, ctx, want, [] {
      Failpoint::Find("index.build")->ArmAlways();
    });
    RunScenario("fp-route", root, ctx, want, [] {
      Failpoint::Find("repartition.route")->ArmAfterHits(1);
    });

    // Concurrent cancellation: a racing thread cancels while the tree
    // drains. Whichever side wins, the error (if any) is typed, workers
    // are joined, and the tree reopens to the exact result.
    std::thread canceller;
    RunScenario(
        "async-cancel", root, ctx, want,
        [&ctx, &canceller] {
          canceller = std::thread([&ctx] { ctx.Cancel(); });
        },
        /*expect_failure=*/false,
        /*settle=*/[&canceller] { canceller.join(); });
  }
}

TEST_P(LifecycleFuzzTest, InjectedFaultsSurfaceCleanlyAndTreesReopen) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed);
  PlanFixture fx;
  const PlanPtr drawn = RandomPlan(rng, &fx, 3);
  auto reference = ReferenceExecute(drawn);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  SweepLifecycle(drawn, Fingerprint(*reference), seed);

  // kAuto picks an index-NL join only past its cost gate, which these
  // small relations never pass. The drawn plan (or, when it projected
  // every interval away, its first base relation) is therefore also the
  // outer of a forced index-NL join with one more base relation, which
  // reaches the index seams: index.build and the inner index the
  // partition pipelines share.
  std::vector<std::string> vts =
      NamesOfType(*OutputSchema(drawn), ValueType::kOngoingInterval);
  PlanPtr outer = drawn;
  if (vts.empty()) {
    outer = Scan(fx.relations.front().get(), "R0");
    vts = {"R0_VT"};
  }
  OngoingRelation inner = MakeBase(rng, "IX_", 12);
  const PlanPtr index_join =
      Join(outer, Scan(&inner, "IX"),
           OverlapsExpr(Col(vts.front()), Col("IX_VT")), "LX", "RX",
           JoinAlgorithm::kIndexNL);
  auto join_reference = ReferenceExecute(index_join);
  ASSERT_TRUE(join_reference.ok()) << join_reference.status().ToString();
  SCOPED_TRACE("forced index-NL join");
  SweepLifecycle(index_join, Fingerprint(*join_reference), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LifecycleFuzzTest,
                         ::testing::ValuesIn(FuzzSeeds(6)));

// Clifford-mode (instantiated) execution honors the same contract.
TEST_P(LifecycleFuzzTest, AtReferenceTimeHonorsLifecycle) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed);
  PlanFixture fx;
  PlanPtr plan = RandomPlan(rng, &fx, 2);
  const TimePoint rt = 50;
  auto reference = ReferenceExecuteAt(plan, rt);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  QueryContext ctx;
  ctx.Cancel();
  auto cancelled = ExecuteAtReferenceTime(plan, rt, &ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  ctx.Reset();
  {
    ScopedFailpoint guard("exec.next", "after:1");
    auto faulty = ExecuteAtReferenceTime(plan, rt, &ctx);
    if (!faulty.ok()) {
      EXPECT_TRUE(IsInjectedFault(faulty.status()));
    }
  }
  auto recovered = ExecuteAtReferenceTime(plan, rt, &ctx);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Fingerprint(*recovered), Fingerprint(*reference));
  EXPECT_EQ(ctx.memory_used(), 0u);
}

// --- executor / view surfaces -----------------------------------------------

TEST_F(FaultInjectionTest, ExecuteSurfacesTypedStatuses) {
  Rng rng(11);
  OngoingRelation r = MakeBase(rng, "E_", 30);
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("E_ID"), Lit(int64_t{25})));

  QueryContext ctx;
  ctx.Cancel();
  EXPECT_EQ(Execute(plan, &ctx).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(Execute(plan, ForcedParallel(2, 4), &ctx).status().code(),
            StatusCode::kCancelled);

  ctx.Reset();
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  EXPECT_EQ(Execute(plan, &ctx).status().code(),
            StatusCode::kDeadlineExceeded);

  ctx.Reset();
  ctx.SetMemoryBudget(8);  // smaller than any materialized tuple
  auto exhausted = Execute(plan, &ctx);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.memory_used(), 0u);

  // A generous budget passes and the result matches the unbudgeted run.
  ctx.Reset();
  ctx.SetMemoryBudget(64 << 20);
  auto budgeted = Execute(plan, &ctx);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  auto plain = Execute(plan);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Fingerprint(*budgeted), Fingerprint(*plain));
}

TEST_F(FaultInjectionTest, MaterializedViewKeepsResultAcrossFailedRefresh) {
  Rng rng(13);
  auto r = MakeBase(rng, "V_", 25);
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("V_ID"), Lit(int64_t{20})));
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::multiset<std::string> want = Fingerprint(view->ongoing_result());

  QueryContext ctx;
  ctx.Cancel();
  Status st = view->Refresh(&ctx);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // The previous materialization keeps serving.
  EXPECT_EQ(Fingerprint(view->ongoing_result()), want);

  {
    ScopedFailpoint guard("exec.open", "always");
    ctx.Reset();
    EXPECT_TRUE(IsInjectedFault(view->Refresh(&ctx)));
    EXPECT_EQ(Fingerprint(view->ongoing_result()), want);
  }

  ctx.Reset();
  ASSERT_TRUE(view->Refresh(&ctx).ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), want);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST_F(FaultInjectionTest, DeltaApplyFaultLeavesViewPreDelta) {
  // The view.delta_apply seam sits at the top of the incremental apply:
  // a triggered failure must surface as the injected fault, leave the
  // served result exactly pre-delta, and keep the SAME pending batch
  // applicable once disarmed (all-or-nothing, cursors unmoved).
  Rng rng(15);
  OngoingRelation r = MakeBase(rng, "W_", 60);
  r.EnableModificationLog();
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("W_ID"), Lit(int64_t{1000})));
  auto view = MaterializedView::Create(plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::multiset<std::string> before = Fingerprint(view->ongoing_result());

  ASSERT_TRUE(
      TemporalInsert(&r,
                     {Value::Int64(500), Value::Int64(1),
                      Value::String("component-bookmarks"),
                      Value::Ongoing(OngoingInterval::SinceUntilNow(0))},
                     3, 40)
          .ok());
  {
    ScopedFailpoint guard("view.delta_apply", "always");
    Status st = view->Refresh();
    EXPECT_TRUE(IsInjectedFault(st)) << st.ToString();
    EXPECT_EQ(Fingerprint(view->ongoing_result()), before);
  }

  // Disarmed, the pending delta applies incrementally and converges on
  // the reference.
  ASSERT_TRUE(view->Refresh().ok());
  EXPECT_EQ(view->last_refresh_mode(), RefreshMode::kDelta);
  auto reference = ReferenceExecute(plan);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Fingerprint(view->ongoing_result()), Fingerprint(*reference));
}

// --- serving-layer seams (server/catalog.h, server/session.h) ---------------

TEST_F(FaultInjectionTest, CatalogCommitFaultNeverPublishesHalfWrite) {
  server::Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("Bugs",
                               Schema({{"BID", ValueType::kInt64},
                                       {"VT", ValueType::kOngoingInterval}}))
                  .ok());
  auto row = [](int64_t bid) {
    return std::vector<Value>{
        Value::Int64(bid), Value::Ongoing(OngoingInterval::SinceUntilNow(0))};
  };
  ASSERT_TRUE(catalog.Insert("Bugs", row(1)).ok());

  server::Snapshot before = catalog.PinSnapshot();
  auto before_data = before.Get("Bugs");
  ASSERT_TRUE(before_data.ok());
  const std::multiset<std::string> want = Fingerprint(**before_data);

  {
    ScopedFailpoint guard("catalog.commit", "always");
    // Every commit kind fails with the injected fault...
    EXPECT_TRUE(IsInjectedFault(catalog.Insert("Bugs", row(2)).status()));
    EXPECT_TRUE(IsInjectedFault(
        catalog
            .TemporalDeleteWhere("Bugs", 10, [](const Tuple&) { return true; })
            .status()));
    EXPECT_TRUE(IsInjectedFault(
        catalog
            .TemporalUpdateWhere(
                "Bugs", 10, [](const Tuple&) { return true; },
                [](const Tuple& t) { return t.values(); })
            .status()));
    EXPECT_TRUE(IsInjectedFault(
        catalog.CreateTable("Other", Schema({{"X", ValueType::kInt64}}))
            .status()));
    // ...and NOTHING becomes visible: no new table, no new state, no
    // consumed sequence number — a failed commit is a perfect no-op.
    server::Snapshot after = catalog.PinSnapshot();
    EXPECT_EQ(after.commit_seq(), before.commit_seq());
    auto after_data = after.Get("Bugs");
    ASSERT_TRUE(after_data.ok());
    EXPECT_EQ(Fingerprint(**after_data), want);
    EXPECT_FALSE(after.Get("Other").ok());
  }

  // Disarmed, the very next commit takes the very next sequence.
  auto committed = catalog.Insert("Bugs", row(3));
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, before.commit_seq() + 1);

  // A probabilistic fault schedule across a write burst: exactly the
  // successful commits are visible, with gapless sequences.
  Failpoint::Find("catalog.commit")->ArmProbability(0.5, 42);
  size_t succeeded = 0;
  uint64_t last_seq = *committed;
  for (int i = 10; i < 30; ++i) {
    auto result = catalog.Insert("Bugs", row(i));
    if (result.ok()) {
      ++succeeded;
      EXPECT_EQ(*result, last_seq + 1);
      last_seq = *result;
    } else {
      EXPECT_TRUE(IsInjectedFault(result.status()));
    }
  }
  Failpoint::DisarmAll();
  auto final_data = catalog.PinSnapshot().Get("Bugs");
  ASSERT_TRUE(final_data.ok());
  EXPECT_EQ((*final_data)->size(), 2 + succeeded);
  EXPECT_EQ(catalog.commit_seq(), last_seq);
}

TEST_F(FaultInjectionTest, SnapshotPinFaultFailsStatementsCleanly) {
  server::Catalog catalog;
  server::SessionManager manager(&catalog);
  auto session = manager.CreateSession();
  ASSERT_TRUE(
      session->Execute("CREATE TABLE Bugs (BID INT, VT PERIOD)").ok());
  ASSERT_TRUE(
      session->Execute("INSERT INTO Bugs VALUES (1, PERIOD ['01/01', NOW))")
          .ok());

  {
    ScopedFailpoint guard("session.snapshot_pin", "always");
    // Both explicit pinning and the per-statement pin fail with the
    // injected fault — before any compilation or execution.
    EXPECT_TRUE(IsInjectedFault(session->PinSnapshot().status()));
    EXPECT_FALSE(session->pinned());
    auto read = session->Execute("SELECT * FROM Bugs");
    ASSERT_FALSE(read.ok());
    EXPECT_TRUE(IsInjectedFault(read.status()));
  }
  // Disarmed, the same session recovers.
  auto recovered = session->Execute("SELECT * FROM Bugs");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->result.affected, 1u);

  // A session that pinned BEFORE the fault arms keeps reading: its
  // snapshot is already held, so no pin (and no failpoint) is on the
  // read path.
  ASSERT_TRUE(session->PinSnapshot().ok());
  {
    ScopedFailpoint guard("session.snapshot_pin", "always");
    auto pinned_read = session->Execute("SELECT * FROM Bugs");
    ASSERT_TRUE(pinned_read.ok()) << pinned_read.status();
    EXPECT_EQ(pinned_read->result.affected, 1u);
  }
  session->Unpin();

  // Intermittent pin faults: each statement either fails with the
  // injected fault or returns the correct, current result.
  Failpoint::Find("session.snapshot_pin")->ArmProbability(0.5, 7);
  for (int i = 0; i < 10; ++i) {
    auto read = session->Execute("SELECT * FROM Bugs");
    if (read.ok()) {
      EXPECT_EQ(read->result.affected, 1u);
    } else {
      EXPECT_TRUE(IsInjectedFault(read.status()));
    }
  }
}

TEST_F(FaultInjectionTest, ServingSeamsAreRegistered) {
  // Constructing the serving types links their translation units; the
  // seams must be planted and discoverable for ONGOINGDB_FAILPOINTS.
  server::Catalog catalog;
  server::SessionManager manager(&catalog);
  auto session = manager.CreateSession();
  EXPECT_NE(Failpoint::Find("catalog.commit"), nullptr);
  EXPECT_NE(Failpoint::Find("session.snapshot_pin"), nullptr);
}

TEST_F(FaultInjectionTest, IndexBuildFaultLeavesIndexUsable) {
  // An index-nested-loop join whose index build fails mid-flight must
  // recover on the next Open: the build restarts from scratch.
  Rng rng(14);
  OngoingRelation left = MakeBase(rng, "L_", 12);
  OngoingRelation right = MakeBase(rng, "R_", 12);
  PlanPtr plan = Join(Scan(&left, "L"), Scan(&right, "R"),
                      OverlapsExpr(Col("L_VT"), Col("R_VT")), "L", "R",
                      JoinAlgorithm::kIndexNL);
  auto reference = ReferenceExecute(plan);
  ASSERT_TRUE(reference.ok());

  QueryContext ctx;
  auto compiled = Compile(plan, ExecMode::kOngoing, 0, &ctx);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  {
    ScopedFailpoint guard("index.build", "always");
    auto faulty = DrainToRelation(**compiled, &ctx);
    ASSERT_FALSE(faulty.ok());
    EXPECT_TRUE(IsInjectedFault(faulty.status()));
  }
  auto recovered = DrainToRelation(**compiled, &ctx);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Fingerprint(*recovered), Fingerprint(*reference));
}

// A predicate that rejects every tuple must not let a drain walk the
// whole relation between two lifecycle checks: a scan checks once per
// batch capacity of scanned positions, as a Filter does per child batch.
// With exec.next failing from its fourth hit on, a relation twelve batch
// capacities long must fail with the injected error instead of draining
// to an empty result. Covers a fixed atom that rejects every tuple,
// alone and after an ongoing atom, in both modes, serially and at four
// workers.
TEST_F(FaultInjectionTest, RejectingScansCheckLifecyclePerScannedBatch) {
  Rng rng(15);
  OngoingRelation r = MakeBase(rng, "R_", 12 * TupleBatch::kDefaultCapacity);
  const ExprPtr none = Lt(Col("R_ID"), Lit(int64_t{0}));
  const std::vector<PlanPtr> plans = {
      Filter(Scan(&r, "R"), none),
      Filter(Scan(&r, "R"),
             And(OverlapsExpr(Col("R_VT"), Lit(OngoingInterval::Fixed(0, 200))),
                 none))};
  for (const PlanPtr& plan : plans) {
    for (ExecMode mode : {ExecMode::kOngoing, ExecMode::kAtReferenceTime}) {
      for (size_t workers : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << plan->ToString() << " mode " << static_cast<int>(mode)
                     << " workers " << workers);
        const ParallelOptions options =
            ForcedParallel(workers, TupleBatch::kDefaultCapacity);
        auto run = [&] {
          return mode == ExecMode::kOngoing
                     ? Execute(plan, options)
                     : ExecuteAtReferenceTime(plan, 50, options);
        };
        auto clean = run();
        ASSERT_TRUE(clean.ok()) << clean.status();
        EXPECT_EQ(clean->size(), 0u);
        ScopedFailpoint guard("exec.next", "after:3");
        auto faulty = run();
        ASSERT_FALSE(faulty.ok());
        EXPECT_TRUE(IsInjectedFault(faulty.status())) << faulty.status();
      }
    }
  }
}

}  // namespace
}  // namespace ongoingdb
