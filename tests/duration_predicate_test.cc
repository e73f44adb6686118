// Tests of the DURATION(interval) <op> n predicate: the paper's
// future-work duration function wired into the expression and SQL
// layers.
#include <gtest/gtest.h>

#include "expr/expr.h"
#include "server/catalog.h"
#include "server/session.h"

namespace ongoingdb {
namespace {

Schema BugSchema() {
  return Schema({{"BID", ValueType::kInt64},
                 {"VT", ValueType::kOngoingInterval}});
}

TEST(DurationPredicateTest, ExprOngoingSemantics) {
  // Bug open since day 100: its duration exceeds 30 days from rt = 131.
  Tuple t({Value::Int64(1),
           Value::Ongoing(OngoingInterval::SinceUntilNow(100))});
  Schema schema = BugSchema();
  auto b = DurationCompare(CompareOp::kGt, Col("VT"), 30)
               ->EvalPredicate(schema, t);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_FALSE(b->Instantiate(120));  // 20 days open
  EXPECT_FALSE(b->Instantiate(130));  // exactly 30
  EXPECT_TRUE(b->Instantiate(131));   // 31 days open
  EXPECT_EQ(b->st(), (IntervalSet{{131, kMaxInfinity}}));
}

TEST(DurationPredicateTest, SnapshotEquivalenceSweep) {
  Schema schema = BugSchema();
  for (TimePoint a = -3; a <= 3; ++a) {
    for (TimePoint b = a; b <= 4; ++b) {
      for (TimePoint c = -3; c <= 4; ++c) {
        for (TimePoint d = c; d <= 5; ++d) {
          OngoingInterval iv(OngoingTimePoint(a, b), OngoingTimePoint(c, d));
          Tuple t({Value::Int64(0), Value::Ongoing(iv)});
          for (int64_t bound : {0, 2, 5}) {
            auto pred = DurationCompare(CompareOp::kLt, Col("VT"), bound)
                            ->EvalPredicate(schema, t);
            ASSERT_TRUE(pred.ok());
            for (TimePoint rt = -6; rt <= 8; ++rt) {
              FixedInterval f = iv.Instantiate(rt);
              int64_t duration = f.empty() ? 0 : f.end - f.start;
              EXPECT_EQ(pred->Instantiate(rt), duration < bound)
                  << iv.ToString() << " bound=" << bound << " rt=" << rt;
            }
          }
        }
      }
    }
  }
}

TEST(DurationPredicateTest, FixedEvaluation) {
  Schema schema({{"VT", ValueType::kFixedInterval}});
  Tuple t({Value::Interval({10, 25})});
  auto ge = DurationCompare(CompareOp::kGe, Col("VT"), 15)
                ->EvalPredicateFixed(schema, t);
  ASSERT_TRUE(ge.ok());
  EXPECT_TRUE(*ge);
  auto gt = DurationCompare(CompareOp::kGt, Col("VT"), 15)
                ->EvalPredicateFixed(schema, t);
  ASSERT_TRUE(gt.ok());
  EXPECT_FALSE(*gt);
}

TEST(DurationPredicateTest, SqlDurationKeyword) {
  server::Catalog catalog;
  server::SessionManager manager(&catalog);
  auto session = manager.CreateSession();
  ASSERT_TRUE(
      session->Execute("CREATE TABLE Bugs (BID INT, VT PERIOD)").ok());
  ASSERT_TRUE(
      session->Execute("INSERT INTO Bugs VALUES (500, PERIOD ['01/25', NOW))")
          .ok());
  ASSERT_TRUE(session
                  ->Execute("INSERT INTO Bugs VALUES (501, "
                            "PERIOD ['03/30', '04/05'))")
                  .ok());
  // Long-running bugs: open more than 60 days.
  auto result =
      session->Execute("SELECT BID FROM Bugs WHERE DURATION(VT) > 60");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->result.relation->size(), 1u);
  const Tuple& t = result->result.relation->tuple(0);
  EXPECT_EQ(t.value(0).AsInt64(), 500);
  // The ongoing bug exceeds 60 days exactly 61 days after 01/25.
  EXPECT_EQ(t.rt(), (IntervalSet{{MD(1, 25) + 61, kMaxInfinity}}));
  // Fixed 6-day bug 501 never qualifies and is dropped.
}

TEST(DurationPredicateTest, SqlSyntaxErrors) {
  server::Catalog catalog;
  server::SessionManager manager(&catalog);
  auto session = manager.CreateSession();
  ASSERT_TRUE(session->Execute("CREATE TABLE T (VT PERIOD)").ok());
  EXPECT_FALSE(
      session->Execute("SELECT * FROM T WHERE DURATION VT > 3").ok());
  EXPECT_FALSE(session->Execute("SELECT * FROM T WHERE DURATION(VT) >").ok());
  EXPECT_FALSE(
      session->Execute("SELECT * FROM T WHERE DURATION(VT) OVERLAPS 3").ok());
}

}  // namespace
}  // namespace ongoingdb
