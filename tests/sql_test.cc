// Tests of the SQL layer: lexing, parsing, planning, and end-to-end
// execution of the paper's running example written as SQL.
#include <gtest/gtest.h>

#include <memory>

#include "query/executor.h"
#include "query/optimizer.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/statement.h"

namespace ongoingdb {
namespace sql {
namespace {

// --- Lexer -----------------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT * FROM B WHERE BID = 500 AND C != 'x y'");
  ASSERT_TRUE(tokens.ok());
  const auto& t = *tokens;
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_TRUE(t[1].IsPunct("*"));
  EXPECT_TRUE(t[2].IsKeyword("FROM"));
  EXPECT_TRUE(t[3].Is(TokenType::kIdentifier));
  EXPECT_TRUE(t[4].IsKeyword("WHERE"));
  EXPECT_EQ(t[6].text, "=");
  EXPECT_EQ(t[7].text, "500");
  EXPECT_TRUE(t[8].IsKeyword("AND"));
  EXPECT_EQ(t[10].text, "!=");
  EXPECT_EQ(t[11].type, TokenType::kString);
  EXPECT_EQ(t[11].text, "x y");
  EXPECT_TRUE(t.back().Is(TokenType::kEnd));
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select Overlaps nOw");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("OVERLAPS"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("NOW"));
}

TEST(LexerTest, QualifiedIdentifiersAndOperators) {
  auto tokens = Tokenize("b.VT <= p.VT <> >=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "b.VT");
  EXPECT_EQ((*tokens)[1].text, "<=");
  EXPECT_EQ((*tokens)[3].text, "!=");  // <> normalized
  EXPECT_EQ((*tokens)[4].text, ">=");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
}

// --- Parser + execution -----------------------------------------------------

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OngoingRelation b(Schema({{"BID", ValueType::kInt64},
                              {"C", ValueType::kString},
                              {"VT", ValueType::kOngoingInterval}}));
    ASSERT_TRUE(b.Insert({Value::Int64(500), Value::String("Spam filter"),
                          Value::Ongoing(OngoingInterval::SinceUntilNow(
                              MD(1, 25)))})
                    .ok());
    ASSERT_TRUE(b.Insert({Value::Int64(501), Value::String("Spam filter"),
                          Value::Ongoing(OngoingInterval::Fixed(
                              MD(3, 30), MD(8, 21)))})
                    .ok());
    catalog_.RegisterShared(
        "B", std::make_shared<const OngoingRelation>(std::move(b)));

    OngoingRelation p(Schema({{"PID", ValueType::kInt64},
                              {"C", ValueType::kString},
                              {"VT", ValueType::kOngoingInterval}}));
    ASSERT_TRUE(p.Insert({Value::Int64(201), Value::String("Spam filter"),
                          Value::Ongoing(OngoingInterval::Fixed(
                              MD(8, 15), MD(8, 24)))})
                    .ok());
    ASSERT_TRUE(p.Insert({Value::Int64(202), Value::String("Spam filter"),
                          Value::Ongoing(OngoingInterval::Fixed(
                              MD(8, 24), MD(8, 27)))})
                    .ok());
    catalog_.RegisterShared(
        "P", std::make_shared<const OngoingRelation>(std::move(p)));

    OngoingRelation l(Schema({{"Name", ValueType::kString},
                              {"C", ValueType::kString},
                              {"VT", ValueType::kOngoingInterval}}));
    ASSERT_TRUE(l.Insert({Value::String("Ann"), Value::String("Spam filter"),
                          Value::Ongoing(OngoingInterval::Fixed(
                              MD(1, 20), MD(8, 18)))})
                    .ok());
    ASSERT_TRUE(l.Insert({Value::String("Bob"), Value::String("Spam filter"),
                          Value::Ongoing(OngoingInterval::SinceUntilNow(
                              MD(8, 18)))})
                    .ok());
    catalog_.RegisterShared(
        "L", std::make_shared<const OngoingRelation>(std::move(l)));
  }

  // Parses, optimizes and executes `query` over the catalog.
  Result<OngoingRelation> Run(const std::string& query) {
    ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr plan, ParseQuery(query, catalog_));
    ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr optimized, Optimize(plan));
    return Execute(optimized);
  }

  Catalog catalog_;
};

TEST_F(SqlTest, SelectStar) {
  auto result = Run("SELECT * FROM B");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(result->schema().num_attributes(), 3u);
}

TEST_F(SqlTest, SelectColumnsProjects) {
  auto result = Run("SELECT BID FROM B");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema().num_attributes(), 1u);
  EXPECT_EQ(result->schema().attribute(0).name, "BID");
}

TEST_F(SqlTest, WhereOnFixedAttribute) {
  auto result = Run("SELECT * FROM B WHERE BID = 500");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->tuple(0).rt().IsAll());
}

TEST_F(SqlTest, WhereWithOngoingPredicateRestrictsRt) {
  // The running example's before predicate: RT = {[01/26, 08/16)}.
  auto result = Run(
      "SELECT * FROM B WHERE BID = 500 AND "
      "VT BEFORE PERIOD ['08/15', '08/24')");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuple(0).rt(), (IntervalSet{{MD(1, 26), MD(8, 16)}}));
}

TEST_F(SqlTest, AliasQualifiedColumnsOnSingleTable) {
  auto result = Run("SELECT b.BID FROM B b WHERE b.C = 'Spam filter'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(SqlTest, PeriodWithNowEndpoint) {
  auto result = Run("SELECT * FROM B WHERE VT EQUALS PERIOD ['01/25', NOW)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuple(0).value(0).AsInt64(), 500);
}

TEST_F(SqlTest, RunningExampleThreeWayJoin) {
  // The Sec. II query as SQL; must yield the five Fig. 2 tuples.
  auto result = Run(
      "SELECT BID, PID, Name "
      "FROM B b "
      "JOIN P p ON b.C = p.C AND b.VT BEFORE p.VT "
      "JOIN L l ON b.C = l.C AND b.VT OVERLAPS l.VT "
      "WHERE b.C = 'Spam filter'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 5u) << result->ToString();
}

TEST_F(SqlTest, SqlMatchesHandBuiltPlan) {
  auto sql_result =
      Run("SELECT * FROM B b JOIN P p ON b.C = p.C AND b.VT BEFORE p.VT");
  ASSERT_TRUE(sql_result.ok()) << sql_result.status();
  // Hand-built plan for the same query.
  auto b = catalog_.Get("B");
  auto p = catalog_.Get("P");
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(p.ok());
  PlanPtr plan = Join(Scan(*b, "b"), Scan(*p, "p"),
                      And(Eq(Col("b.C"), Col("p.C")),
                          BeforeExpr(Col("b.VT"), Col("p.VT"))),
                      "b", "p");
  auto direct = Execute(plan);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(sql_result->size(), direct->size());
  for (TimePoint rt = MD(1, 1); rt <= MD(12, 31); rt += 11) {
    EXPECT_TRUE(
        InstantiatedRelationsEqual(InstantiateRelation(*sql_result, rt),
                                   InstantiateRelation(*direct, rt)));
  }
}

// A SELECT is parsed into its plan along with the statement, from the
// statement's one token list.
TEST_F(SqlTest, ParseStatementCarriesTheSelectPlan) {
  const std::string text = "SELECT BID FROM B WHERE BID = 500;";
  auto parsed = ParseStatement(text, catalog_);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->kind, StatementKind::kSelect);
  EXPECT_EQ(parsed->text, text);
  ASSERT_NE(parsed->plan, nullptr);
  auto result = Execute(parsed->plan);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuple(0).value(0).AsInt64(), 500);

  auto tokens = Tokenize(text);
  ASSERT_TRUE(tokens.ok());
  auto from_tokens = ParseTokens(*tokens, catalog_);
  ASSERT_TRUE(from_tokens.ok()) << from_tokens.status();
  EXPECT_EQ(from_tokens->plan->ToString(), parsed->plan->ToString());
  EXPECT_TRUE(from_tokens->text.empty());

  // The statement end is checked for a SELECT as for every other kind.
  auto trailing = ParseStatement("SELECT BID FROM B; SELECT", catalog_);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().message(),
            "unexpected trailing input near position 19 ('SELECT')");
}

TEST_F(SqlTest, HashJoinHint) {
  auto plan = ParseQuery(
      "SELECT * FROM B b HASH JOIN P p ON b.C = p.C", catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ((*plan)->kind(), PlanKind::kJoin);
  EXPECT_EQ(static_cast<const JoinNode*>(plan->get())->algorithm(),
            JoinAlgorithm::kHash);
}

TEST_F(SqlTest, OrAndNotAndParentheses) {
  auto result =
      Run("SELECT * FROM B WHERE (BID = 500 OR BID = 501) AND NOT BID = 502");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(SqlTest, DateLiteralComparison) {
  // now <= DATE '10/17' is the Table II example; applied per tuple it is
  // tuple-independent, so all tuples keep a restricted RT.
  auto result = Run("SELECT * FROM B WHERE NOW <= DATE '10/17'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(result->tuple(0).rt(),
            (IntervalSet{{kMinInfinity, MD(10, 18)}}));
}

TEST_F(SqlTest, ContainsKeyword) {
  // Timeslice: which bugs are open at 05/14 (at each reference time)?
  auto result = Run("SELECT BID FROM B WHERE VT CONTAINS DATE '05/14'");
  ASSERT_TRUE(result.ok()) << result.status();
  // Bug 500 [01/25, now) contains 05/14 from 05/15 on; bug 501 fixed
  // [03/30, 08/21) contains it always.
  ASSERT_EQ(result->size(), 2u);
  for (const Tuple& t : result->tuples()) {
    if (t.value(0).AsInt64() == 500) {
      EXPECT_EQ(t.rt(), (IntervalSet{{MD(5, 15), kMaxInfinity}}));
    } else {
      EXPECT_TRUE(t.rt().IsAll());
    }
  }
}

TEST_F(SqlTest, Errors) {
  EXPECT_FALSE(Run("SELECT FROM B").ok());
  EXPECT_FALSE(Run("SELECT * FROM Missing").ok());
  EXPECT_FALSE(Run("SELECT * FROM B WHERE").ok());
  EXPECT_FALSE(Run("SELECT * FROM B WHERE BID =").ok());
  EXPECT_FALSE(Run("SELECT * FROM B WHERE VT BEFORE PERIOD ['08/15'").ok());
  EXPECT_FALSE(Run("SELECT * FROM B extra tokens here").ok());
  // Unknown column surfaces at execution.
  EXPECT_FALSE(Run("SELECT * FROM B WHERE Nope = 1").ok());
}

TEST_F(SqlTest, CatalogLookups) {
  for (const char* name : {"B", "P", "L"}) {
    auto relation = catalog_.Get(name);
    ASSERT_TRUE(relation.ok()) << name;
    EXPECT_EQ((*relation)->size(), 2u) << name;
  }
  auto missing = catalog_.Get("Z");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sql
}  // namespace ongoingdb
