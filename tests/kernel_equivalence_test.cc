// Equivalence of the compiled predicate path (query/join.h,
// PairPredicate) with the reference evaluator of tests/testing/
// plan_fuzz.h. Scans test each stored tuple with the predicate's atoms
// before copying it, filters over computed inputs and joins test theirs
// the same way, and the remainder runs on the built tuple:
//
//  * filter sweeps over every Allen op, literal orientation and CONTAINS
//    shape, both execution modes, serial and forced-parallel workers
//    1/2/4, and exact batch-boundary result sizes 0/1/cap/cap+1;
//  * the conjunct classification (atoms that test, atoms that restrict
//    the RT, remainder) for one input and for a join pair;
//  * join residuals of every atom shape through hash, nested-loop and
//    index-NL joins;
//  * the boolean atoms' inline type dispatch against the *Fixed forms,
//    value by value, including mixed and mistyped operands.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "query/executor.h"
#include "query/join.h"
#include "query/physical.h"
#include "testing/plan_fuzz.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeMixedRelation;
using plan_fuzz::ReferenceExecute;
using plan_fuzz::ReferenceExecuteAt;

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

class PredicateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateFuzzTest,
                         ::testing::ValuesIn(FuzzSeeds(8)));

// One filter plan, executed every way the engine can execute it; all
// fingerprints must match the reference evaluator's.
void ExpectFilterEquivalence(OngoingRelation* rel, const ExprPtr& pred,
                             TimePoint rt) {
  PlanPtr plan = Filter(Scan(rel, "R"), pred);
  Result<OngoingRelation> expect_ongoing = ReferenceExecute(plan);
  Result<OngoingRelation> expect_at = ReferenceExecuteAt(plan, rt);
  ASSERT_TRUE(expect_ongoing.ok());
  ASSERT_TRUE(expect_at.ok());

  Result<OngoingRelation> got = Execute(plan);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Fingerprint(*got), Fingerprint(*expect_ongoing));
  Result<OngoingRelation> got_at = ExecuteAtReferenceTime(plan, rt);
  ASSERT_TRUE(got_at.ok());
  EXPECT_EQ(Fingerprint(*got_at), Fingerprint(*expect_at));
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    Result<OngoingRelation> par = Execute(plan, ForcedParallel(workers, 3));
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

// Every Allen op, both literal orientations, against the fixed-interval
// column (an atom that tests) and the ongoing one (an atom that restricts
// the RT), with a fixed literal or an ongoing one. Each runs alone, next
// to a fixed comparison atom, and next to a fixed and an ongoing
// conjunct that stay in the remainder. Then a timeslice CONTAINS of a
// literal point on either column, alone and next to a fixed comparison.
TEST_P(PredicateFuzzTest, FilterVsLiteralEquivalence) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  OngoingRelation rel = MakeMixedRelation(seed, "M_", 40);
  const TimePoint rt = rng.Uniform(0, 120);
  for (AllenOp op : AllAllenOps()) {
    SCOPED_TRACE(::testing::Message() << "allen op " << static_cast<int>(op));
    const ExprPtr lit =
        rng.Bernoulli(0.5) ? Lit(Value::Interval(RandomFixed(rng)))
                           : Lit(plan_fuzz::RandomOngoingInterval(rng));
    for (const char* column : {"M_FT", "M_VT"}) {
      for (bool column_is_lhs : {true, false}) {
        ExprPtr atom = column_is_lhs ? Allen(op, Col(column), lit)
                                     : Allen(op, lit, Col(column));
        SCOPED_TRACE(atom->ToString());
        ExpectFilterEquivalence(&rel, atom, rt);
        ExpectFilterEquivalence(
            &rel, And(atom, Lt(Col("M_ID"), Lit(rng.Uniform(0, 40)))), rt);
        ExpectFilterEquivalence(
            &rel,
            And(Or(Lt(Col("M_ID"), Lit(rng.Uniform(0, 40))),
                   Eq(Col("M_ID"), Lit(rng.Uniform(0, 40)))),
                atom),
            rt);
        const ExprPtr window = Lit(Value::Interval(RandomFixed(rng)));
        ExpectFilterEquivalence(
            &rel, And(atom, Not(OverlapsExpr(Col("M_VT"), window))), rt);
      }
    }
  }
  for (const char* column : {"M_FT", "M_VT"}) {
    const ExprPtr contains =
        ContainsExpr(Col(column), Lit(Value::Time(rng.Uniform(0, 120))));
    SCOPED_TRACE(contains->ToString());
    ExpectFilterEquivalence(&rel, contains, rt);
    ExpectFilterEquivalence(
        &rel, And(contains, Lt(Col("M_ID"), Lit(rng.Uniform(0, 40)))), rt);
  }
}

// Column-vs-column atoms via join residuals: the Allen conjunct pairs
// the two sides' fixed-interval columns, so it runs in the join
// emitter's pair path (query/join.h, PairPredicate) as a boolean test.
TEST_P(PredicateFuzzTest, JoinColumnColumnEquivalence) {
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
    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
      PlanPtr forced = plan_fuzz::WithAlgorithm(plan, algorithm);
      Result<OngoingRelation> got = Execute(forced);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Fingerprint(*got), Fingerprint(*expect_ongoing))
          << "algorithm " << static_cast<int>(algorithm);
      Result<OngoingRelation> got_at = ExecuteAtReferenceTime(forced, rt);
      ASSERT_TRUE(got_at.ok());
      EXPECT_EQ(Fingerprint(*got_at), Fingerprint(*expect_at))
          << "algorithm " << static_cast<int>(algorithm);
    }
    Result<OngoingRelation> par = Execute(plan, ForcedParallel(2, 3));
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(Fingerprint(*par), Fingerprint(*expect_ongoing)) << "parallel";
  }
}

// CONTAINS probes: interval column vs a literal point and vs a paired
// time-point column.
TEST_P(PredicateFuzzTest, ContainsEquivalence) {
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

// --- compiled predicate and join pair path ---------------------------------
// Predicates evaluate on the stored input tuple or pair before the copy
// (query/join.h, PairPredicate). These tests pin which conjuncts become
// atoms, which of those test and which restrict the RT, and check every
// join lowering of every atom shape against the reference evaluator.

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

  // Ongoing semantics split the atoms per Sec. VIII: the fixed-only
  // comparison tests, the conjuncts on ongoing columns or literals
  // restrict the RT. Under Clifford semantics every atom tests.
  const ExprPtr all_atoms = And(And(allen, literal), And(compare, contains));
  const PairPredicate ongoing(all_atoms, joined, left.num_attributes(), false,
                              0);
  EXPECT_EQ(ongoing.fixed_atoms(), 1u);
  EXPECT_EQ(ongoing.ongoing_atoms(), 3u);
  const PairPredicate clifford(all_atoms, joined, left.num_attributes(), true,
                               50);
  EXPECT_EQ(clifford.fixed_atoms(), 4u);
  EXPECT_EQ(clifford.ongoing_atoms(), 0u);

  // The one-input form: the columns of one schema, the same split.
  const Schema schema({{"ID", ValueType::kInt64},
                       {"FT", ValueType::kFixedInterval},
                       {"VT", ValueType::kOngoingInterval}});
  const ExprPtr fixed_allen =
      OverlapsExpr(Col("FT"), Lit(Value::Interval(FixedInterval{3, 9})));
  const ExprPtr ongoing_column =
      OverlapsExpr(Col("VT"), Lit(Value::Interval(FixedInterval{3, 9})));
  const ExprPtr ongoing_literal =
      OverlapsExpr(Col("FT"), Lit(OngoingInterval::SinceUntilNow(4)));
  const ExprPtr id_compare = Lt(Col("ID"), Lit(int64_t{5}));
  const ExprPtr fixed_rest = Or(id_compare, Eq(Col("ID"), Lit(int64_t{7})));
  const ExprPtr ongoing_rest = Not(ongoing_column);

  const ExprPtr mixed =
      And(And(fixed_allen, ongoing_column), And(ongoing_literal, id_compare));
  const PairPredicate one_ongoing(mixed, schema, false, 0);
  EXPECT_EQ(one_ongoing.fixed_atoms(), 2u);
  EXPECT_EQ(one_ongoing.ongoing_atoms(), 2u);
  EXPECT_EQ(one_ongoing.remainder(), nullptr);
  const PairPredicate one_clifford(mixed, schema, true, 50);
  EXPECT_EQ(one_clifford.fixed_atoms(), 4u);
  EXPECT_EQ(one_clifford.ongoing_atoms(), 0u);

  // The remainder keeps each non-atom conjunct, fixed or ongoing.
  EXPECT_EQ(PairPredicate(And(fixed_rest, fixed_allen), schema, false, 0)
                .remainder(),
            fixed_rest);
  EXPECT_EQ(PairPredicate(And(ongoing_column, ongoing_rest), schema, false, 0)
                .remainder(),
            ongoing_rest);
  EXPECT_EQ(PairPredicate(nullptr, schema, false, 0).remainder(), nullptr);
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

// Exact batch-boundary result sizes through a scan that tests its
// predicate: the stream must produce 0 / 1 / cap / cap+1 survivors
// without an empty batch mid-stream, at capacities 1 and 4.
TEST(ScanBatchBoundaryTest, ExactResultSizes) {
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
    const ExprPtr pred = BeforeExpr(
        Col("FT"), Lit(Value::Interval(FixedInterval{
                       static_cast<TimePoint>(k),
                       static_cast<TimePoint>(k) + 1})));
    PlanPtr plan = Filter(Scan(&rel, "R"), pred);
    for (size_t capacity : {size_t{1}, kCap}) {
      Result<PhysicalOpPtr> op = Compile(plan, ExecMode::kOngoing);
      ASSERT_TRUE(op.ok());
      EXPECT_EQ(plan_fuzz::DrainCountWithCapacity(**op, capacity), k)
          << "capacity " << capacity;
    }
  }
}

// --- typed atoms -------------------------------------------------------------
// A boolean atom decides inline through the *Fixed forms' type dispatch
// (TryCompareFixed, TryAllenFixed, TryContainsFixed), or through the
// generic arm (the *Fixed forms themselves). These sweeps evaluate every
// comparison, Allen and CONTAINS shape on every pair of pool values,
// with the column declared right and wrong, and require Restrict and
// Holds to give exactly what the *Fixed form gives on the same
// operands: the boolean, or the error's code and message.

// One atom shape: a comparison, an Allen predicate or CONTAINS.
struct AtomShape {
  ExprKind kind;
  CompareOp compare = CompareOp::kEq;
  AllenOp allen = AllenOp::kOverlaps;

  ExprPtr Build(ExprPtr lhs, ExprPtr rhs) const {
    return kind == ExprKind::kAllen ? Allen(allen, lhs, rhs)
           : kind == ExprKind::kContains
               ? ContainsExpr(lhs, rhs)
               : Compare(compare, lhs, rhs);
  }

  Result<bool> Fixed(const Value& a, const Value& b) const {
    return kind == ExprKind::kAllen      ? EvalAllenFixed(allen, a, b)
           : kind == ExprKind::kContains ? EvalContainsFixed(a, b)
                                         : EvalCompareFixed(compare, a, b);
  }
};

std::vector<AtomShape> AllAtomShapes() {
  std::vector<AtomShape> shapes;
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kEq,
                       CompareOp::kNe, CompareOp::kGe, CompareOp::kGt}) {
    shapes.push_back({ExprKind::kCompare, op});
  }
  for (AllenOp op : AllAllenOps()) {
    shapes.push_back({ExprKind::kAllen, CompareOp::kEq, op});
  }
  shapes.push_back({ExprKind::kContains});
  return shapes;
}

const std::vector<ValueType>& FixedTypes() {
  static const std::vector<ValueType> types = {
      ValueType::kInt64, ValueType::kDouble,    ValueType::kString,
      ValueType::kBool,  ValueType::kTimePoint, ValueType::kFixedInterval};
  return types;
}

// Values of `type` that exercise each arm's edges: NaN, -0.0 and 0.0,
// infinities, the empty string and two equal strings with distinct
// payloads, extreme integers, empty intervals with different bounds.
std::vector<Value> PoolOf(ValueType type) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (type) {
    case ValueType::kInt64:
      return {Value::Int64(std::numeric_limits<int64_t>::min()),
              Value::Int64(-3), Value::Int64(0), Value::Int64(7),
              Value::Int64(std::numeric_limits<int64_t>::max())};
    case ValueType::kDouble:
      return {Value::Double(std::numeric_limits<double>::quiet_NaN()),
              Value::Double(-inf), Value::Double(-0.0), Value::Double(0.0),
              Value::Double(1.5), Value::Double(inf)};
    case ValueType::kString:
      return {Value::String(""), Value::String("ab"), Value::String("ab"),
              Value::String("b")};
    case ValueType::kBool:
      return {Value::Bool(false), Value::Bool(true)};
    case ValueType::kTimePoint:
      return {Value::Time(-5), Value::Time(3), Value::Time(4),
              Value::Time(9)};
    case ValueType::kFixedInterval:
      return {Value::Interval({3, 3}), Value::Interval({5, 5}),
              Value::Interval({1, 4}), Value::Interval({3, 9}),
              Value::Interval({4, 9}), Value::Interval({1, 4})};
    case ValueType::kOngoingTimePoint:
      return {Value::Ongoing(OngoingTimePoint::Now()),
              Value::Ongoing(OngoingTimePoint::Growing(4)),
              Value::Ongoing(OngoingTimePoint::Fixed(3))};
    case ValueType::kOngoingInterval:
      return {Value::Ongoing(OngoingInterval::SinceUntilNow(3)),
              Value::Ongoing(OngoingInterval::FromNowUntil(6)),
              Value::Ongoing(OngoingInterval::Fixed(1, 4))};
    default:
      return {};
  }
}

// `got` is exactly `want`: the same boolean, or an error with the same
// code and message.
void ExpectSameOutcome(const Result<bool>& got, const Result<bool>& want) {
  ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want.status() : got.status());
  if (want.ok()) {
    EXPECT_EQ(*got, *want);
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

// Restrict under ongoing semantics as a boolean: the RT survives whole
// or empties.
Result<bool> RestrictOutcome(const PairPredicate& pred, const Tuple& l,
                             const Tuple& r) {
  IntervalSet rt = IntervalSet::All(), scratch;
  Status st = pred.Restrict(l, r, &rt, &scratch);
  if (!st.ok()) return st;
  EXPECT_TRUE(rt.IsEmpty() || rt.IsAll()) << rt.ToString();
  return !rt.IsEmpty();
}

// Every shape on every pair of fixed pool values, the column declared
// as each fixed type, right or wrong: the dispatch reads the values'
// own type tags, so no result may depend on the schema. Column against
// literal in both orientations, under both semantics.
TEST(TypedAtomTest, ColumnAgainstLiteralEqualsFixedForms) {
  for (const AtomShape& shape : AllAtomShapes()) {
    for (ValueType ta : FixedTypes()) {
      for (ValueType tb : FixedTypes()) {
        for (const Value& a : PoolOf(ta)) {
          for (const Value& b : PoolOf(tb)) {
            SCOPED_TRACE(shape.Build(Lit(a), Lit(b))->ToString());
            const Result<bool> want = shape.Fixed(a, b);
            for (ValueType declared : FixedTypes()) {
              SCOPED_TRACE(::testing::Message()
                           << "column declared "
                           << ValueTypeToString(declared));
              const Schema schema({{"C", declared}});
              const ExprPtr col_lit = shape.Build(Col("C"), Lit(b));
              const ExprPtr lit_col = shape.Build(Lit(a), Col("C"));
              const Tuple ta_row({a}), tb_row({b});
              ExpectSameOutcome(
                  RestrictOutcome(PairPredicate(col_lit, schema, false, 0),
                                  ta_row, ta_row),
                  want);
              ExpectSameOutcome(
                  PairPredicate(col_lit, schema, true, 7).Holds(ta_row),
                  want);
              ExpectSameOutcome(
                  RestrictOutcome(PairPredicate(lit_col, schema, false, 0),
                                  tb_row, tb_row),
                  want);
              ExpectSameOutcome(
                  PairPredicate(lit_col, schema, true, 7).Holds(tb_row),
                  want);
            }
          }
        }
      }
    }
  }
}

// Column against column on a join pair: the left input's column holds
// a, the right input's b, each typed by its schema.
TEST(TypedAtomTest, JoinPairColumnsEqualFixedForms) {
  for (const AtomShape& shape : AllAtomShapes()) {
    for (ValueType ta : FixedTypes()) {
      for (ValueType tb : FixedTypes()) {
        const Schema left({{"X", ta}}), right({{"Y", tb}});
        const Schema joined = left.Concat(right, "L", "R");
        const ExprPtr pred = shape.Build(Col("L.X"), Col("R.Y"));
        const PairPredicate ongoing(pred, joined, 1, false, 0);
        const PairPredicate clifford(pred, joined, 1, true, 7);
        ASSERT_EQ(ongoing.fixed_atoms(), 1u) << pred->ToString();
        for (const Value& a : PoolOf(ta)) {
          for (const Value& b : PoolOf(tb)) {
            SCOPED_TRACE(shape.Build(Lit(a), Lit(b))->ToString());
            const Result<bool> want = shape.Fixed(a, b);
            const Tuple l({a}), r({b});
            ExpectSameOutcome(RestrictOutcome(ongoing, l, r), want);
            ExpectSameOutcome(clifford.Holds(l, r), want);
          }
        }
      }
    }
  }
}

// Clifford semantics on ongoing columns: the generic arm instantiates
// the stored values at rt, and the result equals the *Fixed form on the
// instantiated operands, against every other pool value as a literal
// (instantiated when compiled) or as the other input's column.
TEST(TypedAtomTest, CliffordInstantiatedColumnsEqualFixedForms) {
  std::vector<ValueType> all = FixedTypes();
  all.push_back(ValueType::kOngoingTimePoint);
  all.push_back(ValueType::kOngoingInterval);
  for (TimePoint rt : {TimePoint{2}, TimePoint{6}}) {
    for (const AtomShape& shape : AllAtomShapes()) {
      for (ValueType ongoing : {ValueType::kOngoingTimePoint,
                                ValueType::kOngoingInterval}) {
        for (ValueType other : all) {
          const Schema left({{"X", ongoing}}), right({{"Y", other}});
          const Schema joined = left.Concat(right, "L", "R");
          const PairPredicate pair(shape.Build(Col("L.X"), Col("R.Y")),
                                   joined, 1, true, rt);
          for (const Value& a : PoolOf(ongoing)) {
            for (const Value& b : PoolOf(other)) {
              SCOPED_TRACE(::testing::Message()
                           << shape.Build(Lit(a), Lit(b))->ToString()
                           << " at " << rt);
              const Value ia = a.Instantiate(rt), ib = b.Instantiate(rt);
              const Tuple l({a}), r({b});
              ExpectSameOutcome(pair.Holds(l, r), shape.Fixed(ia, ib));
              ExpectSameOutcome(
                  PairPredicate(shape.Build(Col("X"), Lit(b)), left, true,
                                rt)
                      .Holds(l),
                  shape.Fixed(ia, ib));
              ExpectSameOutcome(
                  PairPredicate(shape.Build(Lit(b), Col("X")), left, true,
                                rt)
                      .Holds(l),
                  shape.Fixed(ib, ia));
            }
          }
        }
      }
    }
  }
}

// The double order is CompareDoubles': NaN equals NaN and is greater
// than every number, and -0.0 equals 0.0, through the inline dispatch
// and the scalar path alike.
TEST(TypedAtomTest, DoublesCompareInValueCompareOrder) {
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  const Value one = Value::Double(1.0);
  const Value inf = Value::Double(std::numeric_limits<double>::infinity());
  const Schema schema({{"D", ValueType::kDouble}});
  auto holds = [&](CompareOp op, const Value& a, const Value& b) {
    const Result<bool> typed =
        PairPredicate(Compare(op, Col("D"), Lit(b)), schema, true, 0)
            .Holds(Tuple({a}));
    const Result<bool> fixed = EvalCompareFixed(op, a, b);
    if (!typed.ok() || !fixed.ok()) {
      ADD_FAILURE() << (typed.ok() ? fixed.status() : typed.status());
      return false;
    }
    EXPECT_EQ(*typed, *fixed);
    EXPECT_EQ(*fixed, ApplyCompare(op, ValueCompare(a, b), 0));
    return *typed;
  };
  EXPECT_TRUE(holds(CompareOp::kEq, nan, nan));
  EXPECT_FALSE(holds(CompareOp::kNe, nan, nan));
  EXPECT_TRUE(holds(CompareOp::kGt, nan, inf));
  EXPECT_TRUE(holds(CompareOp::kLt, one, nan));
  EXPECT_FALSE(holds(CompareOp::kEq, nan, one));
  EXPECT_TRUE(
      holds(CompareOp::kEq, Value::Double(-0.0), Value::Double(0.0)));
  EXPECT_FALSE(
      holds(CompareOp::kLt, Value::Double(-0.0), Value::Double(0.0)));
}

}  // namespace
}  // namespace ongoingdb
