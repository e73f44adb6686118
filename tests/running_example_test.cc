// End-to-end reproduction of the paper's running example (Sec. II):
// relations B, P, L of Fig. 1, the three-way join query V, and the exact
// result tuples v1..v5 of Fig. 2 including their reference times.
#include <gtest/gtest.h>

#include "baselines/clifford.h"
#include "core/operations.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "relation/algebra.h"

namespace ongoingdb {
namespace {

class RunningExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    b_ = OngoingRelation(Schema({{"BID", ValueType::kInt64},
                                 {"C", ValueType::kString},
                                 {"VT", ValueType::kOngoingInterval}}));
    p_ = OngoingRelation(Schema({{"PID", ValueType::kInt64},
                                 {"C", ValueType::kString},
                                 {"VT", ValueType::kOngoingInterval}}));
    l_ = OngoingRelation(Schema({{"Name", ValueType::kString},
                                 {"C", ValueType::kString},
                                 {"VT", ValueType::kOngoingInterval}}));
    // Fig. 1.
    ASSERT_TRUE(b_.Insert({Value::Int64(500), Value::String("Spam filter"),
                           Value::Ongoing(
                               OngoingInterval::SinceUntilNow(MD(1, 25)))})
                    .ok());
    ASSERT_TRUE(b_.Insert({Value::Int64(501), Value::String("Spam filter"),
                           Value::Ongoing(
                               OngoingInterval::Fixed(MD(3, 30), MD(8, 21)))})
                    .ok());
    ASSERT_TRUE(p_.Insert({Value::Int64(201), Value::String("Spam filter"),
                           Value::Ongoing(
                               OngoingInterval::Fixed(MD(8, 15), MD(8, 24)))})
                    .ok());
    ASSERT_TRUE(p_.Insert({Value::Int64(202), Value::String("Spam filter"),
                           Value::Ongoing(
                               OngoingInterval::Fixed(MD(8, 24), MD(8, 27)))})
                    .ok());
    ASSERT_TRUE(l_.Insert({Value::String("Ann"), Value::String("Spam filter"),
                           Value::Ongoing(
                               OngoingInterval::Fixed(MD(1, 20), MD(8, 18)))})
                    .ok());
    ASSERT_TRUE(l_.Insert({Value::String("Bob"), Value::String("Spam filter"),
                           Value::Ongoing(
                               OngoingInterval::SinceUntilNow(MD(8, 18)))})
                    .ok());
  }

  // The query of Sec. II (without the final projection):
  //   sigma_{C='Spam filter'}(B)
  //     |x|_{B.C = P.C  ^  B.VT before P.VT} P
  //     |x|_{B.C = L.C  ^  B.VT overlaps L.VT} L
  PlanPtr BuildQuery() const {
    PlanPtr scan_b = Scan(&b_, "B");
    PlanPtr filtered =
        Filter(scan_b, Eq(Col("C"), Lit("Spam filter")));
    PlanPtr bp = Join(filtered, Scan(&p_, "P"),
                      And(Eq(Col("B.C"), Col("P.C")),
                          BeforeExpr(Col("B.VT"), Col("P.VT"))),
                      "B", "P");
    return Join(bp, Scan(&l_, "L"),
                And(Eq(Col("B.C"), Col("L.C")),
                    OverlapsExpr(Col("B.VT"), Col("L.VT"))),
                "B", "L");
  }

  OngoingRelation b_, p_, l_;
};

TEST_F(RunningExampleTest, Fig2ResultTuplesExact) {
  auto result = Execute(BuildQuery());
  ASSERT_TRUE(result.ok()) << result.status();
  const OngoingRelation& v = *result;
  ASSERT_EQ(v.size(), 5u) << v.ToString();

  const Schema& schema = v.schema();
  auto bid = *schema.IndexOf("BID");
  auto b_vt = *schema.IndexOf("B.VT");
  auto pid = *schema.IndexOf("PID");
  auto name = *schema.IndexOf("Name");

  struct Expected {
    int64_t bid;
    std::string b_vt;
    int64_t pid;
    std::string name;
    std::string intersection;  // B.VT n L.VT
    IntervalSet rt;
  };
  const std::vector<Expected> expected = {
      {500, "[01/25, now)", 201, "Ann", "[01/25, +08/18)",
       IntervalSet{{MD(1, 26), MD(8, 16)}}},
      {500, "[01/25, now)", 202, "Ann", "[01/25, +08/18)",
       IntervalSet{{MD(1, 26), MD(8, 25)}}},
      {500, "[01/25, now)", 202, "Bob", "[08/18, now)",
       IntervalSet{{MD(8, 19), MD(8, 25)}}},
      {501, "[03/30, 08/21)", 202, "Ann", "[03/30, 08/18)",
       IntervalSet::All()},
      {501, "[03/30, 08/21)", 202, "Bob", "[08/18, +08/21)",
       IntervalSet{{MD(8, 19), kMaxInfinity}}},
  };

  auto l_vt = *schema.IndexOf("L.VT");
  for (const Expected& e : expected) {
    bool found = false;
    for (const Tuple& t : v.tuples()) {
      if (t.value(bid).AsInt64() != e.bid ||
          t.value(pid).AsInt64() != e.pid ||
          t.value(name).AsString() != e.name) {
        continue;
      }
      found = true;
      EXPECT_EQ(t.value(b_vt).AsOngoingInterval().ToString(), e.b_vt);
      // The Fig. 2 intersection column B.VT n L.VT.
      OngoingInterval inter = Intersect(t.value(b_vt).AsOngoingInterval(),
                                        t.value(l_vt).AsOngoingInterval());
      EXPECT_EQ(inter.ToString(), e.intersection)
          << "bid=" << e.bid << " pid=" << e.pid << " name=" << e.name;
      EXPECT_EQ(t.rt(), e.rt)
          << "bid=" << e.bid << " pid=" << e.pid << " name=" << e.name
          << " got " << t.rt().ToString();
    }
    EXPECT_TRUE(found) << "missing tuple bid=" << e.bid << " pid=" << e.pid
                       << " name=" << e.name << "\n"
                       << v.ToString();
  }
}

TEST_F(RunningExampleTest, SnapshotEquivalenceAgainstClifford) {
  // The paper's correctness criterion: forall rt ||Q(D)||rt == Q(||D||rt).
  // The right-hand side is exactly what the Clifford-mode executor
  // computes.
  PlanPtr query = BuildQuery();
  auto ongoing = Execute(query);
  ASSERT_TRUE(ongoing.ok());
  for (TimePoint rt = MD(1, 1); rt <= MD(12, 31); rt += 3) {
    OngoingRelation lhs = InstantiateRelation(*ongoing, rt);
    auto rhs = ExecuteAtReferenceTime(query, rt);
    ASSERT_TRUE(rhs.ok());
    EXPECT_TRUE(InstantiatedRelationsEqual(lhs, *rhs))
        << "differs at rt=" << FormatTimePoint(rt) << "\nongoing:\n"
        << lhs.ToString() << "\nclifford:\n"
        << rhs->ToString();
  }
}

TEST_F(RunningExampleTest, OptimizedPlanGivesSameResult) {
  PlanPtr query = BuildQuery();
  auto plain = Execute(query);
  ASSERT_TRUE(plain.ok());
  auto optimized_plan = Optimize(query);
  ASSERT_TRUE(optimized_plan.ok());
  auto optimized = Execute(*optimized_plan);
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ(plain->size(), optimized->size());
  for (TimePoint rt = MD(1, 1); rt <= MD(12, 31); rt += 14) {
    EXPECT_TRUE(InstantiatedRelationsEqual(InstantiateRelation(*plain, rt),
                                           InstantiateRelation(*optimized, rt)));
  }
}

TEST_F(RunningExampleTest, ProjectionOntoFig2Columns) {
  // The full query V of Sec. II includes the projection onto BID, B.VT,
  // PID, Name, B.VT n L.VT; exercised via the generalized projection.
  auto joined = Execute(BuildQuery());
  ASSERT_TRUE(joined.ok());
  const Schema& schema = joined->schema();
  size_t bid = *schema.IndexOf("BID");
  size_t b_vt = *schema.IndexOf("B.VT");
  size_t pid = *schema.IndexOf("PID");
  size_t name = *schema.IndexOf("Name");
  size_t l_vt = *schema.IndexOf("L.VT");
  Schema out(std::vector<Attribute>{{"BID", ValueType::kInt64},
                                    {"B.VT", ValueType::kOngoingInterval},
                                    {"PID", ValueType::kInt64},
                                    {"Name", ValueType::kString},
                                    {"Resp", ValueType::kOngoingInterval}});
  OngoingRelation v = ProjectCompute(
      *joined, out, [&](const Tuple& t) -> std::vector<Value> {
        return {t.value(bid), t.value(b_vt), t.value(pid), t.value(name),
                Value::Ongoing(Intersect(t.value(b_vt).AsOngoingInterval(),
                                         t.value(l_vt).AsOngoingInterval()))};
      });
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.schema().num_attributes(), 5u);
  // Tuple v1's intersection states Ann is responsible from 01/25 until
  // possibly earlier but not later than 08/17 (an ongoing interval that
  // neither fixed points nor now alone could represent).
  bool saw_limited_end = false;
  for (const Tuple& t : v.tuples()) {
    if (t.value(4).AsOngoingInterval().end().IsLimited()) {
      saw_limited_end = true;
    }
  }
  EXPECT_TRUE(saw_limited_end);
}

// The Sec. III Forever counterexample: at reference time 05/14, "which
// bugs might be resolved before patch 201 goes live?" must include bug
// 500; with now replaced by Forever it wrongly disappears.
TEST_F(RunningExampleTest, ForeverBaselineGivesIncorrectResult) {
  PlanPtr query = Filter(
      Scan(&b_, "B"),
      BeforeExpr(Col("VT"), Lit(OngoingInterval::Fixed(MD(8, 15), MD(8, 24)))));
  // Correct (ongoing) answer at rt = 05/14 contains bug 500.
  auto ongoing = Execute(query);
  ASSERT_TRUE(ongoing.ok());
  OngoingRelation at = InstantiateRelation(*ongoing, MD(5, 14));
  bool has_500 = false;
  for (const Tuple& t : at.tuples()) {
    if (t.value(0).AsInt64() == 500) has_500 = true;
  }
  EXPECT_TRUE(has_500);
  // Forever stores bug 500's [01/25, now) as the fixed [01/25, Forever),
  // with Forever the largest time point, which is never before the patch.
  const FixedInterval forever500{MD(1, 25), kMaxInfinity};
  EXPECT_FALSE(BeforeF(forever500, FixedInterval{MD(8, 15), MD(8, 24)}));
}

}  // namespace
}  // namespace ongoingdb
