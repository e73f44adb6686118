// Columnar-vs-scalar equivalence for the vectorized interval-predicate
// kernels (query/kernels.h). Three layers of defense:
//
//  * the raw selection-vector kernels against the scalar expression
//    evaluator on random interval data (including empty intervals);
//  * BatchPredicate's compile-time atom classification (what is
//    kernel-eligible, what stays in the scalar remainder);
//  * end-to-end plan equivalence against the reference evaluator of
//    tests/testing/plan_fuzz.h — every Allen op, literal and
//    column-column probes, both execution modes, kernels on and off,
//    serial and forced-parallel workers 1/2/4, and exact batch-boundary
//    result sizes 0/1/cap/cap+1.
#include "query/kernels.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "query/executor.h"
#include "query/join.h"
#include "query/physical.h"
#include "relation/tuple_batch.h"
#include "testing/plan_fuzz.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeMixedRelation;
using plan_fuzz::ReferenceExecute;
using plan_fuzz::ReferenceExecuteAt;

// Restores the kernel toggle on scope exit — tests flip it to compare
// the columnar and scalar compilations of the same plan.
struct KernelToggle {
  explicit KernelToggle(bool enabled) : saved(kernels::KernelFilteringEnabled()) {
    kernels::SetKernelFilteringEnabled(enabled);
  }
  ~KernelToggle() { kernels::SetKernelFilteringEnabled(saved); }
  bool saved;
};

const std::vector<AllenOp>& AllAllenOps() {
  static const std::vector<AllenOp> ops = {
      AllenOp::kBefore,   AllenOp::kMeets,  AllenOp::kOverlaps,
      AllenOp::kStarts,   AllenOp::kFinishes, AllenOp::kDuring,
      AllenOp::kEquals};
  return ops;
}

// Random fixed interval over a small domain; ~1/8 empty so the
// non-empty guards of the fixed Allen comparators are exercised.
FixedInterval RandomFixed(Rng& rng) {
  TimePoint s = rng.Uniform(0, 100);
  if (rng.Bernoulli(0.125)) return FixedInterval{s, s};
  return FixedInterval{s, s + rng.Uniform(1, 40)};
}

// The scalar reference for one row: the expression evaluator's fixed
// path, which routes through the core Allen comparators — deliberately
// not the kernels' arithmetic.
bool ScalarAllen(AllenOp op, FixedInterval a, FixedInterval b) {
  Schema schema(
      {{"A", ValueType::kFixedInterval}, {"B", ValueType::kFixedInterval}});
  Tuple t({Value::Interval(a), Value::Interval(b)});
  Result<bool> r =
      Allen(op, Col("A"), Col("B"))->EvalPredicateFixed(schema, t);
  EXPECT_TRUE(r.ok());
  return *r;
}

bool ScalarContains(FixedInterval i, TimePoint p) {
  Schema schema(
      {{"I", ValueType::kFixedInterval}, {"P", ValueType::kTimePoint}});
  Tuple t({Value::Interval(i), Value::Time(p)});
  Result<bool> r =
      ContainsExpr(Col("I"), Col("P"))->EvalPredicateFixed(schema, t);
  EXPECT_TRUE(r.ok());
  return *r;
}

class KernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzzTest,
                         ::testing::ValuesIn(FuzzSeeds(8)));

// Raw kernels against the scalar expression evaluator, row by row.
TEST_P(KernelFuzzTest, RawKernelsMatchScalarEvaluator) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed);
  constexpr size_t kN = 64;
  std::vector<TimePoint> ls(kN), le(kN), rs(kN), re(kN), pt(kN);
  for (size_t i = 0; i < kN; ++i) {
    FixedInterval l = RandomFixed(rng);
    FixedInterval r = RandomFixed(rng);
    ls[i] = l.start;
    le[i] = l.end;
    rs[i] = r.start;
    re[i] = r.end;
    pt[i] = rng.Uniform(0, 120);
  }
  std::vector<uint32_t> sel(kN), out(kN);
  auto reset_sel = [&] { std::iota(sel.begin(), sel.end(), uint32_t{0}); };

  for (AllenOp op : AllAllenOps()) {
    for (bool column_is_lhs : {true, false}) {
      std::optional<IntervalProbeOp> probe_op =
          kernels::ProbeOpFor(op, column_is_lhs);
      if (!probe_op.has_value()) continue;  // no kernel form; skip here
      // Column vs literal (the literal is row 0's rhs interval; also an
      // empty literal to hit the probe-empty early-out).
      for (FixedInterval probe :
           {FixedInterval{rs[0], re[0]}, FixedInterval{5, 5}}) {
        reset_sel();
        size_t m = kernels::FilterIntervalVsLiteral(
            *probe_op, ls.data(), le.data(), probe, sel.data(), kN,
            out.data());
        std::vector<uint32_t> expect;
        for (uint32_t i = 0; i < kN; ++i) {
          FixedInterval c{ls[i], le[i]};
          bool keep = column_is_lhs ? ScalarAllen(op, c, probe)
                                    : ScalarAllen(op, probe, c);
          if (keep) expect.push_back(i);
        }
        ASSERT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + m), expect)
            << "op " << static_cast<int>(op) << " column_is_lhs "
            << column_is_lhs;
      }
    }
    // Column vs column (lhs column ALLEN-OP rhs column).
    std::optional<IntervalProbeOp> probe_op = kernels::ProbeOpFor(op, true);
    if (probe_op.has_value()) {
      reset_sel();
      size_t m = kernels::FilterIntervalVsInterval(
          *probe_op, ls.data(), le.data(), rs.data(), re.data(), sel.data(),
          kN, out.data());
      std::vector<uint32_t> expect;
      for (uint32_t i = 0; i < kN; ++i) {
        if (ScalarAllen(op, {ls[i], le[i]}, {rs[i], re[i]})) {
          expect.push_back(i);
        }
      }
      ASSERT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + m), expect)
          << "column-column op " << static_cast<int>(op);
    }
  }

  // CONTAINS: literal point and point column.
  TimePoint p = rng.Uniform(0, 120);
  reset_sel();
  size_t m = kernels::FilterIntervalVsLiteral(IntervalProbeOp::kContains,
                                              ls.data(), le.data(),
                                              FixedInterval{p, p}, sel.data(),
                                              kN, out.data());
  std::vector<uint32_t> expect;
  for (uint32_t i = 0; i < kN; ++i) {
    if (ScalarContains({ls[i], le[i]}, p)) expect.push_back(i);
  }
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + m), expect);

  reset_sel();
  m = kernels::FilterIntervalContainsPoint(ls.data(), le.data(), pt.data(),
                                           sel.data(), kN, out.data());
  expect.clear();
  for (uint32_t i = 0; i < kN; ++i) {
    if (ScalarContains({ls[i], le[i]}, pt[i])) expect.push_back(i);
  }
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + m), expect);
}

// Compile-time atom classification: what lands in atoms_, what stays in
// the scalar remainder.
TEST(BatchPredicateTest, ClassifiesConjuncts) {
  Schema schema({{"ID", ValueType::kInt64},
                 {"FT", ValueType::kFixedInterval},
                 {"VT", ValueType::kOngoingInterval}});
  const ExprPtr eligible =
      OverlapsExpr(Col("FT"), Lit(Value::Interval(FixedInterval{3, 9})));

  kernels::BatchPredicate bp;
  bp.Compile(eligible, schema, /*at_reference_time=*/false, 0);
  EXPECT_TRUE(bp.HasKernelAtoms());
  EXPECT_EQ(bp.remainder(), nullptr);

  // Unsupported Allen op: everything stays scalar.
  bp.Compile(Allen(AllenOp::kDuring, Col("FT"),
                   Lit(Value::Interval(FixedInterval{3, 9}))),
             schema, false, 0);
  EXPECT_FALSE(bp.HasKernelAtoms());
  EXPECT_NE(bp.remainder(), nullptr);

  // Mixed conjunction: the Allen atom compiles, the int comparison is
  // the remainder.
  bp.Compile(And(eligible, Lt(Col("ID"), Lit(int64_t{5}))), schema, false, 0);
  EXPECT_TRUE(bp.HasKernelAtoms());
  ASSERT_NE(bp.remainder(), nullptr);
  EXPECT_NE(AsCompare(bp.remainder()), std::nullopt);

  // Ongoing column: never eligible.
  bp.Compile(OverlapsExpr(Col("VT"), Lit(Value::Interval(FixedInterval{3, 9}))),
             schema, false, 0);
  EXPECT_FALSE(bp.HasKernelAtoms());

  // Ongoing literal: ineligible in ongoing mode, instantiated (hence
  // eligible) in at-reference-time mode.
  const ExprPtr ongoing_lit =
      OverlapsExpr(Col("FT"), Lit(OngoingInterval::SinceUntilNow(4)));
  bp.Compile(ongoing_lit, schema, false, 0);
  EXPECT_FALSE(bp.HasKernelAtoms());
  bp.Compile(ongoing_lit, schema, true, 50);
  EXPECT_TRUE(bp.HasKernelAtoms());

  // The global toggle forces the scalar path at compile time.
  {
    KernelToggle off(false);
    bp.Compile(eligible, schema, false, 0);
    EXPECT_FALSE(bp.HasKernelAtoms());
    EXPECT_NE(bp.remainder(), nullptr);
  }
}

// One filter plan, executed every way the engine can execute it; all
// fingerprints must match the reference evaluator's.
void ExpectFilterEquivalence(OngoingRelation* rel, const ExprPtr& pred,
                             TimePoint rt) {
  PlanPtr plan = Filter(Scan(rel, "R"), pred);
  Result<OngoingRelation> expect_ongoing = ReferenceExecute(plan);
  Result<OngoingRelation> expect_at = ReferenceExecuteAt(plan, rt);
  ASSERT_TRUE(expect_ongoing.ok());
  ASSERT_TRUE(expect_at.ok());

  for (bool kernel_on : {true, false}) {
    KernelToggle toggle(kernel_on);
    SCOPED_TRACE(::testing::Message() << "kernels " << kernel_on);
    Result<OngoingRelation> got = Execute(plan);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(*got), Fingerprint(*expect_ongoing));
    Result<OngoingRelation> got_at = ExecuteAtReferenceTime(plan, rt);
    ASSERT_TRUE(got_at.ok());
    EXPECT_EQ(Fingerprint(*got_at), Fingerprint(*expect_at));
    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
      Result<OngoingRelation> par =
          Execute(plan, ForcedParallel(workers, 3));
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(Fingerprint(*par), Fingerprint(*expect_ongoing))
          << "workers " << workers;
      Result<OngoingRelation> par_at =
          ExecuteAtReferenceTime(plan, rt, ForcedParallel(workers, 3));
      ASSERT_TRUE(par_at.ok());
      EXPECT_EQ(Fingerprint(*par_at), Fingerprint(*expect_at))
          << "workers " << workers;
    }
  }
}

// Every Allen op, both literal orientations, with and without an extra
// scalar conjunct (the remainder path), against the fixed-interval
// column of the mixed relation.
TEST_P(KernelFuzzTest, FilterVsLiteralEquivalence) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  OngoingRelation rel = MakeMixedRelation(seed, "M_", 40);
  const TimePoint rt = rng.Uniform(0, 120);
  for (AllenOp op : AllAllenOps()) {
    SCOPED_TRACE(::testing::Message() << "allen op " << static_cast<int>(op));
    const ExprPtr lit = Lit(Value::Interval(RandomFixed(rng)));
    for (bool column_is_lhs : {true, false}) {
      ExprPtr atom = column_is_lhs ? Allen(op, Col("M_FT"), lit)
                                   : Allen(op, lit, Col("M_FT"));
      ExpectFilterEquivalence(&rel, atom, rt);
      // Conjunction with a scalar leftover exercises kernel + remainder.
      ExpectFilterEquivalence(
          &rel, And(atom, Lt(Col("M_ID"), Lit(rng.Uniform(0, 40)))), rt);
    }
  }
}

// Column-vs-column atoms via join residuals: the Allen conjunct pairs
// the two sides' fixed-interval columns, so it runs in the join
// emitter's pair path (query/join.h, PairPredicate); the kernel toggle
// governs only filters and must not change a join's result.
TEST_P(KernelFuzzTest, JoinColumnColumnEquivalence) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed ^ 0xc2b2ae3d27d4eb4full);
  OngoingRelation a = MakeMixedRelation(seed, "A_", 12);
  OngoingRelation b = MakeMixedRelation(seed + 1000, "B_", 12);
  const TimePoint rt = rng.Uniform(0, 120);
  for (AllenOp op : AllAllenOps()) {
    SCOPED_TRACE(::testing::Message() << "allen op " << static_cast<int>(op));
    PlanPtr plan = Join(Scan(&a, "A"), Scan(&b, "B"),
                        Allen(op, Col("A_FT"), Col("B_FT")), "L", "R");
    Result<OngoingRelation> expect_ongoing = ReferenceExecute(plan);
    Result<OngoingRelation> expect_at = ReferenceExecuteAt(plan, rt);
    ASSERT_TRUE(expect_ongoing.ok());
    ASSERT_TRUE(expect_at.ok());
    for (bool kernel_on : {true, false}) {
      KernelToggle toggle(kernel_on);
      for (JoinAlgorithm algorithm :
           {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
        PlanPtr forced = plan_fuzz::WithAlgorithm(plan, algorithm);
        Result<OngoingRelation> got = Execute(forced);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Fingerprint(*got), Fingerprint(*expect_ongoing))
            << "kernels " << kernel_on << " algorithm "
            << static_cast<int>(algorithm);
        Result<OngoingRelation> got_at = ExecuteAtReferenceTime(forced, rt);
        ASSERT_TRUE(got_at.ok());
        EXPECT_EQ(Fingerprint(*got_at), Fingerprint(*expect_at))
            << "kernels " << kernel_on << " algorithm "
            << static_cast<int>(algorithm);
      }
      Result<OngoingRelation> par = Execute(plan, ForcedParallel(2, 3));
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(Fingerprint(*par), Fingerprint(*expect_ongoing))
          << "parallel, kernels " << kernel_on;
    }
  }
}

// CONTAINS probes: interval column vs a literal point and vs a paired
// time-point column.
TEST_P(KernelFuzzTest, ContainsEquivalence) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed ^ 0x165667b19e3779f9ull);
  OngoingRelation rel(Schema({{"C_ID", ValueType::kInt64},
                              {"C_FT", ValueType::kFixedInterval},
                              {"C_TP", ValueType::kTimePoint}}));
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(rel.Insert({Value::Int64(i),
                            Value::Interval(RandomFixed(rng)),
                            Value::Time(rng.Uniform(0, 120))})
                    .ok());
  }
  const TimePoint rt = rng.Uniform(0, 120);
  ExpectFilterEquivalence(
      &rel, ContainsExpr(Col("C_FT"), Lit(Value::Time(rng.Uniform(0, 120)))),
      rt);
  ExpectFilterEquivalence(&rel, ContainsExpr(Col("C_FT"), Col("C_TP")), rt);
}

// --- join pair path ---------------------------------------------------------
// Join residuals evaluate on the stored input pair before the copy
// (query/join.h, PairPredicate). These tests pin which conjuncts become
// pair atoms and check every lowering of every atom shape against the
// reference evaluator.

TEST(PairPredicateTest, ClassifiesConjuncts) {
  Schema left(
      {{"A_ID", ValueType::kInt64}, {"A_VT", ValueType::kOngoingInterval}});
  Schema right(
      {{"B_ID", ValueType::kInt64}, {"B_VT", ValueType::kOngoingInterval}});
  const Schema joined = left.Concat(right, "L", "R");
  auto remainder = [&](const ExprPtr& e) {
    return PairPredicate(e, joined, left.num_attributes(), false, 0)
        .remainder();
  };
  const ExprPtr allen = OverlapsExpr(Col("B_VT"), Col("A_VT"));
  const ExprPtr literal =
      Allen(AllenOp::kDuring, Lit(OngoingInterval::SinceUntilNow(4)),
            Col("B_VT"));
  const ExprPtr compare = Lt(Col("A_ID"), Col("B_ID"));
  const ExprPtr contains = ContainsExpr(Col("A_VT"), Lit(Value::Time(7)));
  EXPECT_EQ(remainder(And(And(allen, literal), And(compare, contains))),
            nullptr);
  // Disjunctions, negations, DURATION and unresolved names stay scalar.
  const ExprPtr disjunction = Or(allen, compare);
  EXPECT_EQ(remainder(And(allen, disjunction)), disjunction);
  const ExprPtr negation = Not(allen);
  EXPECT_EQ(remainder(negation), negation);
  const ExprPtr duration = DurationCompare(CompareOp::kLt, Col("A_VT"), 5);
  EXPECT_EQ(remainder(And(duration, compare)), duration);
  const ExprPtr unknown = Eq(Col("A_NOPE"), Col("B_ID"));
  EXPECT_EQ(remainder(unknown), unknown);
}

// Join inputs for the pair-path sweep: a two-value key (hash joins find
// keys), ongoing and fixed interval columns, and a time point.
OngoingRelation MakePairRelation(uint64_t seed, const std::string& p,
                                 size_t n) {
  Rng rng(seed);
  OngoingRelation r(Schema({{p + "ID", ValueType::kInt64},
                            {p + "K", ValueType::kInt64},
                            {p + "VT", ValueType::kOngoingInterval},
                            {p + "FT", ValueType::kFixedInterval},
                            {p + "TP", ValueType::kTimePoint}}));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        r.Insert({Value::Int64(static_cast<int64_t>(i)),
                  Value::Int64(rng.Uniform(0, 1)),
                  Value::Ongoing(plan_fuzz::RandomOngoingInterval(rng)),
                  Value::Interval(RandomFixed(rng)),
                  Value::Time(rng.Uniform(0, 120))})
            .ok());
  }
  return r;
}

class PairPathTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PairPathTest,
                         ::testing::ValuesIn(FuzzSeeds(2)));

// Every Allen op and CONTAINS, in both operand orders, column against
// column (ongoing, fixed and mixed) and against a literal on either
// side; each alone, with a non-temporal comparison and with a
// disjunction the pair path leaves to the remainder. Each plan runs
// through hash, nested-loop and (where eligible) index-NL joins, in
// both modes, at workers 1/2/4.
TEST_P(PairPathTest, JoinResidualsMatchReference) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed ^ 0x27d4eb2f165667c5ull);
  OngoingRelation a = MakePairRelation(seed, "A_", 10);
  OngoingRelation b = MakePairRelation(seed + 1000, "B_", 10);
  const TimePoint rt = rng.Uniform(0, 120);
  auto interval_literal = [&rng]() {
    return rng.Bernoulli(0.5)
               ? Lit(Value::Interval(RandomFixed(rng)))
               : Lit(plan_fuzz::RandomOngoingInterval(rng));
  };
  std::vector<ExprPtr> atoms;
  for (AllenOp op : AllAllenOps()) {
    for (const char* c : {"VT", "FT"}) {
      atoms.push_back(Allen(op, Col(std::string("A_") + c),
                            Col(std::string("B_") + c)));
      atoms.push_back(Allen(op, Col(std::string("B_") + c),
                            Col(std::string("A_") + c)));
    }
    atoms.push_back(Allen(op, Col("A_VT"), Col("B_FT")));
    atoms.push_back(Allen(op, Col("A_FT"), interval_literal()));
    atoms.push_back(Allen(op, interval_literal(), Col("B_VT")));
  }
  atoms.push_back(ContainsExpr(Col("A_VT"), Col("B_TP")));
  atoms.push_back(ContainsExpr(Col("B_FT"), Col("A_TP")));
  atoms.push_back(
      ContainsExpr(Col("A_FT"), Lit(Value::Time(rng.Uniform(0, 120)))));
  atoms.push_back(ContainsExpr(Col("B_VT"), Lit(OngoingTimePoint::Now())));
  atoms.push_back(ContainsExpr(interval_literal(), Col("A_TP")));

  for (const ExprPtr& atom : atoms) {
    const ExprPtr mixes[] = {
        atom, And(atom, Lt(Col("A_ID"), Col("B_ID"))),
        And(Or(Lt(Col("A_ID"), Lit(rng.Uniform(0, 10))),
               Eq(Col("B_K"), Lit(int64_t{1}))),
            atom)};
    for (const ExprPtr& residual : mixes) {
      SCOPED_TRACE(residual->ToString());
      PlanPtr plan = Join(Scan(&a, "A"), Scan(&b, "B"),
                          And(Eq(Col("A_K"), Col("B_K")), residual), "L", "R");
      Result<OngoingRelation> expect_ongoing = ReferenceExecute(plan);
      Result<OngoingRelation> expect_at = ReferenceExecuteAt(plan, rt);
      ASSERT_TRUE(expect_ongoing.ok()) << expect_ongoing.status();
      ASSERT_TRUE(expect_at.ok()) << expect_at.status();
      for (JoinAlgorithm algorithm :
           {JoinAlgorithm::kHash, JoinAlgorithm::kNestedLoop,
            JoinAlgorithm::kIndexNL}) {
        PlanPtr forced = plan_fuzz::WithAlgorithm(plan, algorithm);
        if (algorithm == JoinAlgorithm::kIndexNL &&
            !Compile(forced, ExecMode::kOngoing).ok()) {
          continue;  // no index-eligible conjunct
        }
        for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
          SCOPED_TRACE(::testing::Message()
                       << "algorithm " << static_cast<int>(algorithm)
                       << " workers " << workers);
          Result<OngoingRelation> got =
              Execute(forced, ForcedParallel(workers, 3));
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(Fingerprint(*got), Fingerprint(*expect_ongoing));
          Result<OngoingRelation> got_at =
              ExecuteAtReferenceTime(forced, rt, ForcedParallel(workers, 3));
          ASSERT_TRUE(got_at.ok()) << got_at.status();
          EXPECT_EQ(Fingerprint(*got_at), Fingerprint(*expect_at));
        }
      }
    }
  }
}

// Exact batch-boundary result sizes through the kernel filter path: the
// stream must produce 0 / 1 / cap / cap+1 survivors without an empty
// batch mid-stream, at capacities 1 and 4.
TEST(KernelBatchBoundaryTest, ExactResultSizes) {
  OngoingRelation rel(
      Schema({{"ID", ValueType::kInt64}, {"FT", ValueType::kFixedInterval}}));
  constexpr int64_t kRows = 16;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(rel.Insert({Value::Int64(i),
                            Value::Interval(FixedInterval{i, i + 1})})
                    .ok());
  }
  constexpr size_t kCap = 4;
  // FT = [i, i+1) before [k, k+1) holds iff i + 1 <= k: exactly k rows.
  for (size_t k : {size_t{0}, size_t{1}, kCap, kCap + 1}) {
    PlanPtr plan = Filter(
        Scan(&rel, "R"),
        BeforeExpr(Col("FT"), Lit(Value::Interval(FixedInterval{
                                  static_cast<TimePoint>(k),
                                  static_cast<TimePoint>(k) + 1}))));
    for (size_t capacity : {size_t{1}, kCap}) {
      Result<PhysicalOpPtr> op = Compile(plan, ExecMode::kOngoing);
      ASSERT_TRUE(op.ok());
      EXPECT_EQ(plan_fuzz::DrainCountWithCapacity(**op, capacity), k)
          << "capacity " << capacity;
    }
  }
}

}  // namespace
}  // namespace ongoingdb
