// Cross-layer integration property tests: randomized SQL queries over
// generated data sets, executed end-to-end (lexer -> parser -> optimizer
// -> executor), verified against Clifford-mode execution at swept
// reference times — the paper's snapshot-equivalence criterion applied
// to whole queries:
//
//     forall rt:  ||Q(D)||rt == Q(||D||rt)
#include <gtest/gtest.h>

#include <memory>

#include "datasets/synthetic.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "sql/parser.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

class IntegrationPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    datasets::SyntheticOptions options;
    options.cardinality = 120;
    options.key_cardinality = 8;
    options.history_years = 2;
    options.seed = GetParam() * 7 + 3;
    options.kind = GetParam() % 2 == 0 ? datasets::OngoingKind::kExpanding
                                       : datasets::OngoingKind::kShrinking;
    catalog_.RegisterShared("R", std::make_shared<const OngoingRelation>(
                                     datasets::GenerateSynthetic(options)));
    options.seed += 1;
    options.cardinality = 80;
    catalog_.RegisterShared("S", std::make_shared<const OngoingRelation>(
                                     datasets::GenerateSynthetic(options)));
  }

  // Verifies ||Q(D)||rt == Q(||D||rt) for a parsed query across a sweep
  // of reference times including ones before, inside, and after the
  // data history.
  void VerifySnapshotEquivalence(const std::string& query) {
    auto plan = sql::ParseQuery(query, catalog_);
    ASSERT_TRUE(plan.ok()) << query << ": " << plan.status();
    auto optimized = Optimize(*plan);
    ASSERT_TRUE(optimized.ok());
    auto ongoing = Execute(*optimized);
    ASSERT_TRUE(ongoing.ok()) << query << ": " << ongoing.status();
    const TimePoint end = Date(2019, 1, 1);
    for (TimePoint rt = end - 3 * 365; rt <= end + 365; rt += 73) {
      auto clifford = ExecuteAtReferenceTime(*optimized, rt);
      ASSERT_TRUE(clifford.ok()) << query;
      EXPECT_TRUE(InstantiatedRelationsEqual(
          InstantiateRelation(*ongoing, rt), *clifford))
          << query << " differs at rt=" << FormatTimePoint(rt);
    }
  }

  sql::Catalog catalog_;
};

TEST_P(IntegrationPropertyTest, SelectionWithTemporalPredicate) {
  VerifySnapshotEquivalence(
      "SELECT * FROM R WHERE VT OVERLAPS PERIOD ['2018/09/01', "
      "'2018/12/01')");
}

TEST_P(IntegrationPropertyTest, SelectionWithMixedConjunction) {
  VerifySnapshotEquivalence(
      "SELECT * FROM R WHERE K < 4 AND VT BEFORE PERIOD ['2018/11/01', "
      "'2018/12/15')");
}

TEST_P(IntegrationPropertyTest, SelectionWithDisjunctionAndNegation) {
  VerifySnapshotEquivalence(
      "SELECT * FROM R WHERE K = 0 OR NOT VT DURING PERIOD ['2017/01/01', "
      "'2018/12/31')");
}

TEST_P(IntegrationPropertyTest, ContainsTimeslice) {
  VerifySnapshotEquivalence(
      "SELECT * FROM R WHERE VT CONTAINS DATE '2018/10/15'");
}

TEST_P(IntegrationPropertyTest, EquiTemporalJoin) {
  VerifySnapshotEquivalence(
      "SELECT * FROM R r JOIN S s ON r.K = s.K AND r.VT OVERLAPS s.VT");
}

TEST_P(IntegrationPropertyTest, JoinWithPostFilter) {
  VerifySnapshotEquivalence(
      "SELECT * FROM R r JOIN S s ON r.K = s.K "
      "WHERE r.VT BEFORE s.VT AND r.ID < 60");
}

TEST_P(IntegrationPropertyTest, MeetsAndFinishes) {
  VerifySnapshotEquivalence(
      "SELECT * FROM R WHERE VT MEETS PERIOD ['2018/06/01', '2018/09/01') "
      "OR VT FINISHES PERIOD ['2017/01/01', '2018/12/31')");
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntegrationPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace ongoingdb
