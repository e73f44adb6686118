// Micro-benchmarks (google-benchmark) of the Sec. VIII implementation
// claims, with ablations of the design choices DESIGN.md calls out:
//
//  * the Fig. 6 decision-tree less-than (<= 3 comparisons) vs a naive
//    five-case enumeration;
//  * the Algorithm 1 sweep-line conjunction (single pass, sorted output
//    for free) vs a sort-then-merge implementation;
//  * the Allen predicates (one-pass gap form, by operand shape),
//    interval-set operations, and instantiation.
//
// Every benchmark additionally reports allocs_per_op / bytes_per_op via
// the counting allocator, so the allocation-lean claims of DESIGN.md are
// numbers, not prose. Set ONGOINGDB_BENCH_JSON to a file path to emit
// the results as machine-readable JSON (the BENCH_*.json baselines).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <string_view>

#include "bench_common.h"
#include "core/bind.h"
#include "core/operations.h"
#include "query/join.h"
#include "query/physical.h"
#include "sql/statement.h"
#include "util/alloc_counter.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

// Publishes the allocation counters gathered across the timed loop as
// per-iteration benchmark counters.
void ReportAllocs(benchmark::State& state, const AllocScope& scope) {
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(scope.count()), benchmark::Counter::kAvgIterations);
  state.counters["bytes_per_op"] = benchmark::Counter(
      static_cast<double>(scope.bytes()), benchmark::Counter::kAvgIterations);
}

std::vector<OngoingTimePoint> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<OngoingTimePoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TimePoint a = rng.Uniform(-1000, 1000);
    points.emplace_back(a, a + rng.Uniform(0, 500));
  }
  return points;
}

std::vector<IntervalSet> RandomSets(size_t n, size_t intervals_per_set,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalSet> sets;
  sets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<FixedInterval> ivs;
    for (size_t k = 0; k < intervals_per_set; ++k) {
      TimePoint s = rng.Uniform(-10000, 10000);
      ivs.push_back({s, s + rng.Uniform(1, 400)});
    }
    sets.push_back(IntervalSet::FromUnsorted(std::move(ivs)));
  }
  return sets;
}

// Naive less-than: enumerates Theorem 1's five cases with explicit
// condition tests (up to eight comparisons) instead of the Fig. 6
// decision tree. Used as the ablation baseline.
OngoingBoolean NaiveLess(const OngoingTimePoint& t1,
                         const OngoingTimePoint& t2) {
  const TimePoint a = t1.a(), b = t1.b(), c = t2.a(), d = t2.b();
  if (a <= b && b < c && c <= d) return OngoingBoolean::True();
  if (a < c && c <= d && d <= b) {
    return OngoingBoolean(IntervalSet{{kMinInfinity, c}});
  }
  if (c <= a && a <= b && b < d) {
    if (b + 1 >= kMaxInfinity) return OngoingBoolean::False();
    return OngoingBoolean(IntervalSet{{b + 1, kMaxInfinity}});
  }
  if (a < c && c <= b && b < d) {
    if (b + 1 >= kMaxInfinity) {
      return OngoingBoolean(IntervalSet{{kMinInfinity, c}});
    }
    return OngoingBoolean(
        IntervalSet{{kMinInfinity, c}, {b + 1, kMaxInfinity}});
  }
  return OngoingBoolean::False();
}

// Sort-based conjunction: concatenates both interval lists and
// normalizes, computing the intersection via complement identities.
// The ablation baseline for Algorithm 1.
IntervalSet SortBasedConjunction(const IntervalSet& x, const IntervalSet& y) {
  // x ^ y == not(not x v not y); unions via FromUnsorted re-sorting.
  // The complements live in named locals: iterating a temporary's
  // intervals() would dangle (the range-for does not lifetime-extend
  // the IntervalSet behind the reference).
  const IntervalSet not_x = x.Complement();
  const IntervalSet not_y = y.Complement();
  std::vector<FixedInterval> merged;
  for (const FixedInterval& iv : not_x.intervals()) {
    merged.push_back(iv);
  }
  for (const FixedInterval& iv : not_y.intervals()) {
    merged.push_back(iv);
  }
  return IntervalSet::FromUnsorted(std::move(merged)).Complement();
}

void BM_LessThanDecisionTree(benchmark::State& state) {
  auto points = RandomPoints(1024, 7);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& t1 = points[i % points.size()];
    const auto& t2 = points[(i + 1) % points.size()];
    benchmark::DoNotOptimize(Less(t1, t2));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_LessThanDecisionTree);

void BM_LessThanNaive(benchmark::State& state) {
  auto points = RandomPoints(1024, 7);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& t1 = points[i % points.size()];
    const auto& t2 = points[(i + 1) % points.size()];
    benchmark::DoNotOptimize(NaiveLess(t1, t2));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_LessThanNaive);

void BM_MinMax(benchmark::State& state) {
  auto points = RandomPoints(1024, 11);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& t1 = points[i % points.size()];
    const auto& t2 = points[(i + 1) % points.size()];
    benchmark::DoNotOptimize(Min(t1, t2));
    benchmark::DoNotOptimize(Max(t1, t2));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_MinMax);

void BM_ConjunctionSweepLine(benchmark::State& state) {
  auto sets = RandomSets(256, static_cast<size_t>(state.range(0)), 13);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& x = sets[i % sets.size()];
    const auto& y = sets[(i + 1) % sets.size()];
    benchmark::DoNotOptimize(x.Intersect(y));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_ConjunctionSweepLine)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Destination-passing conjunction: the per-tuple hot-path variant that
// reuses one result set across calls (join emission, EvalPredicate).
void BM_ConjunctionInto(benchmark::State& state) {
  auto sets = RandomSets(256, static_cast<size_t>(state.range(0)), 13);
  size_t i = 0;
  IntervalSet out;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& x = sets[i % sets.size()];
    const auto& y = sets[(i + 1) % sets.size()];
    x.IntersectInto(y, &out);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_ConjunctionInto)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ConjunctionSortBased(benchmark::State& state) {
  auto sets = RandomSets(256, static_cast<size_t>(state.range(0)), 13);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& x = sets[i % sets.size()];
    const auto& y = sets[(i + 1) % sets.size()];
    benchmark::DoNotOptimize(SortBasedConjunction(x, y));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_ConjunctionSortBased)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_DisjunctionSweepLine(benchmark::State& state) {
  auto sets = RandomSets(256, static_cast<size_t>(state.range(0)), 17);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& x = sets[i % sets.size()];
    const auto& y = sets[(i + 1) % sets.size()];
    benchmark::DoNotOptimize(x.Union(y));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_DisjunctionSweepLine)->Arg(1)->Arg(16);

// --- inline-buffer spill of 2x2-interval set operations --------------------
// The ROADMAP question behind these: Union/Difference of two 2-interval
// sets can produce 4 intervals and spill the inline capacity of 3. The
// pairs below are constructed so every operation spills — the worst
// case, not the average — which bounds what revisiting the inline cap
// could possibly save.

// Two 2-interval sets whose union has 4 intervals (disjoint,
// non-adjacent).
std::vector<std::pair<IntervalSet, IntervalSet>> Spill2x2UnionPairs(
    size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<IntervalSet, IntervalSet>> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TimePoint a = rng.Uniform(-5000, 5000);
    pairs.emplace_back(IntervalSet{{a, a + 5}, {a + 40, a + 45}},
                       IntervalSet{{a + 10, a + 15}, {a + 60, a + 65}});
  }
  return pairs;
}

// x minus y where y bites a hole into both intervals of x: 4 fragments.
std::vector<std::pair<IntervalSet, IntervalSet>> Spill2x2DifferencePairs(
    size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<IntervalSet, IntervalSet>> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TimePoint a = rng.Uniform(-5000, 5000);
    pairs.emplace_back(IntervalSet{{a, a + 30}, {a + 50, a + 80}},
                       IntervalSet{{a + 5, a + 10}, {a + 55, a + 60}});
  }
  return pairs;
}

void BM_DisjunctionSpill2x2(benchmark::State& state) {
  auto pairs = Spill2x2UnionPairs(256, 37);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i % pairs.size()];
    benchmark::DoNotOptimize(x.Union(y));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_DisjunctionSpill2x2);

// Destination reuse: after the first spill the kept heap buffer absorbs
// all later 4-interval results — the accumulator pattern Union/
// Difference consumers (CoveredReferenceTimes, algebra Difference) use.
void BM_DisjunctionInto2x2(benchmark::State& state) {
  auto pairs = Spill2x2UnionPairs(256, 37);
  size_t i = 0;
  IntervalSet out;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i % pairs.size()];
    x.UnionInto(y, &out);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_DisjunctionInto2x2);

void BM_DifferenceSpill2x2(benchmark::State& state) {
  auto pairs = Spill2x2DifferencePairs(256, 41);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i % pairs.size()];
    benchmark::DoNotOptimize(x.Difference(y));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_DifferenceSpill2x2);

void BM_DifferenceInto2x2(benchmark::State& state) {
  auto pairs = Spill2x2DifferencePairs(256, 41);
  size_t i = 0;
  IntervalSet out;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i % pairs.size()];
    x.DifferenceInto(y, &out);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_DifferenceInto2x2);

void BM_Negation(benchmark::State& state) {
  auto sets = RandomSets(256, 16, 19);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets[i % sets.size()].Complement());
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_Negation);

void BM_OverlapsPredicate(benchmark::State& state) {
  Rng rng(23);
  std::vector<OngoingInterval> intervals;
  for (int i = 0; i < 1024; ++i) {
    if (rng.Bernoulli(0.3)) {
      intervals.push_back(OngoingInterval::SinceUntilNow(rng.Uniform(0, 500)));
    } else {
      TimePoint s = rng.Uniform(0, 500);
      intervals.push_back(OngoingInterval::Fixed(s, s + rng.Uniform(1, 90)));
    }
  }
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Overlaps(intervals[i % intervals.size()],
                                      intervals[(i + 1) % intervals.size()]));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_OverlapsPredicate);

void BM_BeforePredicate(benchmark::State& state) {
  Rng rng(29);
  std::vector<OngoingInterval> intervals;
  for (int i = 0; i < 1024; ++i) {
    TimePoint s = rng.Uniform(0, 500);
    intervals.push_back(rng.Bernoulli(0.3)
                            ? OngoingInterval::SinceUntilNow(s)
                            : OngoingInterval::Fixed(s, s + rng.Uniform(1, 90)));
  }
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Before(intervals[i % intervals.size()],
                                    intervals[(i + 1) % intervals.size()]));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_BeforePredicate);

// ns and allocations per call of the one-pass ongoing predicates
// (core/operations.h) by operand shape: both operands fixed, fixed
// against ongoing, and both ongoing ([s, now) intervals; a+ points for
// CONTAINS). Every shape computes its St from a stack array into the
// result's inline storage, so allocs_per_op reads 0 throughout.
enum class OngoingPredicate { kOverlaps, kBefore, kContains };

void BM_OngoingPredicate(benchmark::State& state, OngoingPredicate pred,
                         bool lhs_ongoing, bool rhs_ongoing) {
  Rng rng(37);
  auto interval = [&rng](bool ongoing) {
    const TimePoint s = rng.Uniform(0, 500);
    return ongoing ? OngoingInterval::SinceUntilNow(s)
                   : OngoingInterval::Fixed(s, s + rng.Uniform(1, 90));
  };
  std::vector<OngoingInterval> lhs, rhs;
  std::vector<OngoingTimePoint> points;
  for (int i = 0; i < 1024; ++i) {
    lhs.push_back(interval(lhs_ongoing));
    rhs.push_back(interval(rhs_ongoing));
    const TimePoint p = rng.Uniform(0, 600);
    points.push_back(rhs_ongoing ? OngoingTimePoint::Growing(p)
                                 : OngoingTimePoint::Fixed(p));
  }
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    const size_t k = i++ % lhs.size();
    switch (pred) {
      case OngoingPredicate::kOverlaps:
        benchmark::DoNotOptimize(Overlaps(lhs[k], rhs[k]));
        break;
      case OngoingPredicate::kBefore:
        benchmark::DoNotOptimize(Before(lhs[k], rhs[k]));
        break;
      case OngoingPredicate::kContains:
        benchmark::DoNotOptimize(Contains(lhs[k], points[k]));
        break;
    }
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK_CAPTURE(BM_OngoingPredicate, overlaps_fixed_fixed,
                  OngoingPredicate::kOverlaps, false, false);
BENCHMARK_CAPTURE(BM_OngoingPredicate, overlaps_fixed_ongoing,
                  OngoingPredicate::kOverlaps, false, true);
BENCHMARK_CAPTURE(BM_OngoingPredicate, overlaps_ongoing_ongoing,
                  OngoingPredicate::kOverlaps, true, true);
BENCHMARK_CAPTURE(BM_OngoingPredicate, before_fixed_fixed,
                  OngoingPredicate::kBefore, false, false);
BENCHMARK_CAPTURE(BM_OngoingPredicate, before_fixed_ongoing,
                  OngoingPredicate::kBefore, false, true);
BENCHMARK_CAPTURE(BM_OngoingPredicate, before_ongoing_ongoing,
                  OngoingPredicate::kBefore, true, true);
BENCHMARK_CAPTURE(BM_OngoingPredicate, contains_fixed_fixed,
                  OngoingPredicate::kContains, false, false);
BENCHMARK_CAPTURE(BM_OngoingPredicate, contains_fixed_ongoing,
                  OngoingPredicate::kContains, false, true);
BENCHMARK_CAPTURE(BM_OngoingPredicate, contains_ongoing_ongoing,
                  OngoingPredicate::kContains, true, true);

void BM_Instantiate(benchmark::State& state) {
  auto points = RandomPoints(1024, 31);
  size_t i = 0;
  AllocScope alloc_scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Bind(points[i % points.size()], static_cast<TimePoint>(i % 2000)));
    ++i;
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_Instantiate);

// --- query-lifecycle check overhead -----------------------------------------
// The cooperative batch-boundary check (query/exec_context.h) and the
// disarmed failpoint fast path (util/failpoint.h) sit in every
// PhysicalOperator::Next; these pin down what one check costs and what
// the end-to-end drain pays for carrying a context at all.

void BM_LifecycleContextCheck(benchmark::State& state) {
  QueryContext ctx;
  AllocScope alloc_scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Check());
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_LifecycleContextCheck);

void BM_LifecycleContextCheckWithDeadline(benchmark::State& state) {
  QueryContext ctx;
  ctx.SetTimeout(std::chrono::hours(24));  // armed but never expiring
  AllocScope alloc_scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Check());
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_LifecycleContextCheckWithDeadline);

void BM_FailpointDisarmed(benchmark::State& state) {
  Failpoint& fp = Failpoint::GetOrCreate("bench.disarmed");
  fp.Disarm();
  AllocScope alloc_scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp.ShouldFail());
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_FailpointDisarmed);

// End-to-end: draining a filter-over-scan plan with and without a
// context — the full per-batch overhead of the lifecycle contract as
// seen by a query, not just the check in isolation.
OngoingRelation MakeDrainRelation(size_t n) {
  Rng rng(43);
  OngoingRelation r(Schema({{"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < n; ++i) {
    TimePoint s = rng.Uniform(0, 500);
    // Generator rows are well-formed by construction; a failed insert
    // would only shrink the bench input, never corrupt a measurement.
    (void)r.Insert({Value::Int64(rng.Uniform(0, 1000)),
                    Value::Ongoing(OngoingInterval::Fixed(
                        s, s + rng.Uniform(1, 90)))});
  }
  return r;
}

void BM_DrainNoContext(benchmark::State& state) {
  OngoingRelation r = MakeDrainRelation(static_cast<size_t>(state.range(0)));
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("K"), Lit(int64_t{900})));
  auto compiled = Compile(plan, ExecMode::kOngoing, 0, nullptr);
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  AllocScope alloc_scope;
  for (auto _ : state) {
    auto result = DrainToRelation(**compiled);
    if (!result.ok()) state.SkipWithError("drain failed");
    benchmark::DoNotOptimize(result);
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_DrainNoContext)->Arg(1024)->Arg(8192);

void BM_DrainWithContext(benchmark::State& state) {
  OngoingRelation r = MakeDrainRelation(static_cast<size_t>(state.range(0)));
  PlanPtr plan = Filter(Scan(&r, "R"), Lt(Col("K"), Lit(int64_t{900})));
  QueryContext ctx;
  ctx.SetTimeout(std::chrono::hours(24));
  ctx.SetMemoryBudget(1ull << 30);
  auto compiled = Compile(plan, ExecMode::kOngoing, 0, &ctx);
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  AllocScope alloc_scope;
  for (auto _ : state) {
    auto result = DrainToRelation(**compiled, &ctx);
    if (!result.ok()) state.SkipWithError("drain failed");
    benchmark::DoNotOptimize(result);
  }
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_DrainWithContext)->Arg(1024)->Arg(8192);

// --- predicate evaluation on stored tuples ----------------------------------
// The compiled predicate (query/join.h, PairPredicate) a scan runs on
// each stored tuple before copying it, and the Filter(Scan) drain that
// runs it (DESIGN.md, "Predicate evaluation"). Selectivity is a
// benchmark argument (percent); the probe interval is sized so the
// requested fraction of rows survives.

constexpr TimePoint kFilterDomain = 100000;
constexpr TimePoint kFilterLen = 50;

// (ID, FT) rows whose fixed-interval starts are uniform over the domain
// with a fixed length, so a threshold probe yields a predictable
// selectivity.
OngoingRelation MakeFilterRelation(size_t n, uint64_t seed) {
  Rng rng(seed);
  OngoingRelation r(Schema(
      {{"ID", ValueType::kInt64}, {"FT", ValueType::kFixedInterval}}));
  for (size_t i = 0; i < n; ++i) {
    TimePoint s = rng.Uniform(0, kFilterDomain - 1);
    // Generator rows are well-formed by construction (see above).
    (void)r.Insert({Value::Int64(static_cast<int64_t>(i)),
                    Value::Interval({s, s + kFilterLen})});
  }
  return r;
}

// `FT OVERLAPS [0, t)` with t = domain * pct / 100: start < t survives.
ExprPtr OverlapsProbeFor(int64_t pct) {
  return OverlapsExpr(
      Col("FT"), Lit(Value::Interval({0, kFilterDomain * pct / 100})));
}

// Predicate evaluation only: the compiled predicate's atom on each of
// 4096 stored tuples, nothing copied.
void BM_FilterPredicateScalar(benchmark::State& state) {
  constexpr size_t kRows = 4096;
  const OngoingRelation r = MakeFilterRelation(kRows, 47);
  const PairPredicate pred(OverlapsProbeFor(state.range(0)), r.schema(),
                           /*at_reference_time=*/false, 0);
  IntervalSet rt, scratch;
  AllocScope alloc_scope;
  for (auto _ : state) {
    size_t survivors = 0;
    for (const Tuple& t : r.tuples()) {
      Status st = pred.Restrict(t, &rt, &scratch);
      survivors += st.ok() && !rt.IsEmpty();
    }
    benchmark::DoNotOptimize(survivors);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_FilterPredicateScalar)->Arg(1)->Arg(50)->Arg(99);

// Drains `plan` through one compiled tree per benchmark run, counting
// `rows` scanned positions per iteration.
void DrainCompiled(benchmark::State& state, const PlanPtr& plan,
                   size_t rows) {
  auto compiled = Compile(plan, ExecMode::kOngoing, 0, nullptr);
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  AllocScope alloc_scope;
  for (auto _ : state) {
    auto result = DrainToRelation(**compiled);
    if (!result.ok()) state.SkipWithError("drain failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
  ReportAllocs(state, alloc_scope);
}

// The end-to-end Filter(Scan) drain over 8192 rows: the scan tests each
// stored tuple before copying it.
void BM_FilterScanDrain(benchmark::State& state) {
  constexpr size_t kRows = 8192;
  const OngoingRelation r = MakeFilterRelation(kRows, 59);
  DrainCompiled(state, Filter(Scan(&r, "R"), OverlapsProbeFor(state.range(0))),
                kRows);
}
BENCHMARK(BM_FilterScanDrain)->ArgName("pct")->Arg(1)->Arg(50)->Arg(99);

// A table of the ingest benchmark's shape: 20,000 rows of (ID, K, VT)
// with positional IDs, K uniform over 1,000 keys and VT a fixed or
// growing interval starting in 2010-2018.
constexpr size_t kIngestRows = 20000;

OngoingRelation MakeIngestRelation() {
  constexpr TimePoint kFirst = Date(2010, 1, 1);
  constexpr TimePoint kLast = Date(2019, 1, 1);
  Rng rng(61);
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < kIngestRows; ++i) {
    const TimePoint s = rng.Uniform(kFirst, kLast);
    const OngoingInterval vt =
        rng.Bernoulli(0.3) ? OngoingInterval::SinceUntilNow(s)
                           : OngoingInterval::Fixed(s, s + rng.Uniform(1, 700));
    // Generator rows are well-formed by construction (see above).
    (void)r.Insert({Value::Int64(static_cast<int64_t>(i)),
                    Value::Int64(rng.Uniform(0, 999)), Value::Ongoing(vt)});
  }
  return r;
}

// The ingest benchmark's point SELECT over 20,000 rows: K = k (1,000
// keys) AND VT OVERLAPS a one-year window, 9 rows out. The fixed
// key atom rejects almost every stored tuple before it claims a batch
// slot.
void BM_PointSelectDrain(benchmark::State& state) {
  const OngoingRelation r = MakeIngestRelation();
  const ExprPtr pred = And(
      Eq(Col("K"), Lit(int64_t{7})),
      OverlapsExpr(Col("VT"), Lit(OngoingInterval::Fixed(Date(2016, 1, 1),
                                                         Date(2017, 1, 1)))));
  DrainCompiled(state, Filter(Scan(&r, "R"), pred), kIngestRows);
}
BENCHMARK(BM_PointSelectDrain);

// The per-row test of the ingest benchmark's by-ID DELETE and UPDATE:
// the tuple test of `ID = x` (sql::MakeModificationFilter) on every
// stored row of the same table. It times what a chunk the WHERE's chunk
// test cannot rule out pays per row, not a DML's match, which tests only
// such chunks and the tail (relation/modifications.cc). One row matches.
void BM_ModificationFilterScan(benchmark::State& state) {
  const OngoingRelation r = MakeIngestRelation();
  const ModificationFilter filter = sql::MakeModificationFilter(
      Eq(Col("ID"), Lit(int64_t{12345})), r.schema());
  AllocScope alloc_scope;
  for (auto _ : state) {
    size_t matches = 0;
    for (const Tuple& t : r.tuples()) {
      Result<bool> keep = filter(t);
      matches += keep.ok() && *keep;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kIngestRows));
  ReportAllocs(state, alloc_scope);
}
BENCHMARK(BM_ModificationFilterScan);

// The console table's options as google-benchmark's own console
// reporter picks them: --benchmark_color=auto (the default) colours only
// a terminal, and false, no, off, 0, f or n turn colour off. The library
// keeps the parsed flag to itself and benchmark::Initialize removes it
// from argv, so argv is scanned for it before Initialize.
benchmark::ConsoleReporter::OutputOptions ConsoleOptions(int argc,
                                                         char** argv) {
  constexpr std::string_view kFlag = "--benchmark_color=";
  std::string color = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      color = std::string(arg.substr(kFlag.size()));
    }
  }
  std::transform(color.begin(), color.end(), color.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  bool colored = isatty(fileno(stdout)) != 0;
  if (color != "auto") {
    colored = color != "false" && color != "no" && color != "off" &&
              color != "0" && color != "f" && color != "n";
  }
  return colored ? benchmark::ConsoleReporter::OO_ColorTabular
                 : benchmark::ConsoleReporter::OO_Tabular;
}

// Console output as usual, plus capture of every run into the shared
// BenchJsonWriter so ONGOINGDB_BENCH_JSON emits the same schema as the
// hand-rolled harnesses.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  JsonCapturingReporter(OutputOptions options, bench::BenchJsonWriter* json)
      : benchmark::ConsoleReporter(options), json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.iterations == 0) continue;
      bench::BenchRecord record;
      record.name = run.benchmark_name();
      const double seconds_per_op =
          run.real_accumulated_time / static_cast<double>(run.iterations);
      record.ns_per_op = seconds_per_op * 1e9;
      record.ops_per_sec = seconds_per_op > 0 ? 1.0 / seconds_per_op : 0;
      if (auto it = run.counters.find("bytes_per_op");
          it != run.counters.end()) {
        record.bytes_per_op = it->second.value;
      }
      if (auto it = run.counters.find("allocs_per_op");
          it != run.counters.end()) {
        record.allocs_per_op = it->second.value;
      }
      json_->Add(std::move(record));
    }
  }

 private:
  bench::BenchJsonWriter* json_;
};

}  // namespace
}  // namespace ongoingdb

int main(int argc, char** argv) {
  const auto console_options = ongoingdb::ConsoleOptions(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ongoingdb::bench::BenchJsonWriter json("micro_core_ops");
  ongoingdb::JsonCapturingReporter reporter(console_options, &json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.WriteFromEnv();
  return 0;
}
