// Tests of the SQL statement layer: CREATE TABLE, INSERT, and the
// temporal DELETE/UPDATE statements built on Torp's modification
// semantics, each run through a Session over a serving catalog — the
// one path every SQL write takes.
#include "sql/statement.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "server/catalog.h"
#include "server/session.h"

namespace ongoingdb {
namespace {

class StatementTest : public ::testing::Test {
 protected:
  Result<server::ExecResult> Run(const std::string& statement) {
    return session_->Execute(statement);
  }

  // The table's current published version.
  std::shared_ptr<const OngoingRelation> Table(const std::string& name) {
    auto table = catalog_.PinSnapshot().Get(name);
    EXPECT_TRUE(table.ok()) << table.status();
    return table.ok() ? *table : std::make_shared<const OngoingRelation>();
  }

  // Runs `statement`, which must fail with InvalidArgument naming
  // `fragment` and publish nothing.
  void ExpectRejected(const std::string& statement,
                      const std::string& fragment) {
    SCOPED_TRACE(statement);
    const uint64_t seq = catalog_.commit_seq();
    auto result = Run(statement);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(fragment), std::string::npos)
        << result.status().message();
    EXPECT_EQ(catalog_.commit_seq(), seq);
  }

  server::Catalog catalog_;
  server::SessionManager manager_{&catalog_};
  std::shared_ptr<server::Session> session_ = manager_.CreateSession();
};

TEST_F(StatementTest, CreateTable) {
  auto result = Run(
      "CREATE TABLE Bugs (BID INT, C TEXT, Open BOOL, Found DATE, VT "
      "PERIOD)");
  ASSERT_TRUE(result.ok()) << result.status();
  auto bugs = Table("Bugs");
  ASSERT_EQ(bugs->schema().num_attributes(), 5u);
  EXPECT_EQ(bugs->schema().attribute(4).type, ValueType::kOngoingInterval);
  EXPECT_EQ(bugs->schema().attribute(3).type, ValueType::kTimePoint);
  // Duplicate creation fails.
  EXPECT_FALSE(Run("CREATE TABLE Bugs (X INT)").ok());
  // Unknown type fails.
  EXPECT_FALSE(Run("CREATE TABLE Other (X BLOB)").ok());
}

TEST_F(StatementTest, InsertRows) {
  ASSERT_TRUE(Run("CREATE TABLE Bugs (BID INT, C TEXT, VT PERIOD)").ok());
  auto result = Run(
      "INSERT INTO Bugs VALUES (500, 'Spam filter', "
      "PERIOD ['01/25', NOW))");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result.affected, 1u);
  ASSERT_TRUE(
      Run("INSERT INTO Bugs VALUES (501, 'UI', PERIOD ['03/30', '08/21'))")
          .ok());
  auto bugs = Table("Bugs");
  ASSERT_EQ(bugs->size(), 2u);
  EXPECT_EQ(bugs->tuple(0).value(2).AsOngoingInterval().ToString(),
            "[01/25, now)");
  // Type mismatch rejected.
  EXPECT_FALSE(Run("INSERT INTO Bugs VALUES ('x', 'y', 1)").ok());
  // Unknown table rejected.
  EXPECT_FALSE(Run("INSERT INTO Nope VALUES (1)").ok());
}

TEST_F(StatementTest, SelectDelegates) {
  ASSERT_TRUE(Run("CREATE TABLE Bugs (BID INT, VT PERIOD)").ok());
  ASSERT_TRUE(
      Run("INSERT INTO Bugs VALUES (500, PERIOD ['01/25', NOW))").ok());
  auto result = Run("SELECT * FROM Bugs WHERE BID = 500");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->result.relation.has_value());
  EXPECT_EQ(result->result.relation->size(), 1u);
  EXPECT_EQ(result->result.affected, 1u);
}

TEST_F(StatementTest, TemporalDelete) {
  ASSERT_TRUE(Run("CREATE TABLE Bugs (BID INT, VT PERIOD)").ok());
  ASSERT_TRUE(
      Run("INSERT INTO Bugs VALUES (500, PERIOD ['01/25', NOW))").ok());
  ASSERT_TRUE(
      Run("INSERT INTO Bugs VALUES (501, PERIOD ['03/30', NOW))").ok());
  auto result = Run("DELETE FROM Bugs WHERE BID = 500 AT DATE '06/15'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result.affected, 1u);
  auto bugs = Table("Bugs");
  ASSERT_EQ(bugs->size(), 2u);
  // The Torp semantics: end := min(now, 06/15) = +06/15.
  EXPECT_EQ(bugs->tuple(0).value(1).AsOngoingInterval().ToString(),
            "[01/25, +06/15)");
  EXPECT_EQ(bugs->tuple(1).value(1).AsOngoingInterval().ToString(),
            "[03/30, now)");
}

TEST_F(StatementTest, DeleteWithoutWhereAffectsAll) {
  ASSERT_TRUE(Run("CREATE TABLE Bugs (BID INT, VT PERIOD)").ok());
  ASSERT_TRUE(
      Run("INSERT INTO Bugs VALUES (1, PERIOD ['01/01', NOW))").ok());
  ASSERT_TRUE(
      Run("INSERT INTO Bugs VALUES (2, PERIOD ['02/01', NOW))").ok());
  auto result = Run("DELETE FROM Bugs AT DATE '06/01'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result.affected, 2u);
}

TEST_F(StatementTest, TemporalUpdate) {
  ASSERT_TRUE(Run("CREATE TABLE Staff (Name TEXT, Role TEXT, VT PERIOD)")
                  .ok());
  ASSERT_TRUE(Run("INSERT INTO Staff VALUES ('Ann', 'dev', "
                  "PERIOD ['01/01', NOW))")
                  .ok());
  auto result = Run(
      "UPDATE Staff SET Role = 'lead' WHERE Name = 'Ann' AT DATE '06/01'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result.affected, 1u);
  auto staff = Table("Staff");
  ASSERT_EQ(staff->size(), 2u);
  EXPECT_EQ(staff->tuple(0).value(1).AsString(), "dev");
  EXPECT_EQ(staff->tuple(0).value(2).AsOngoingInterval().ToString(),
            "[01/01, +06/01)");
  EXPECT_EQ(staff->tuple(1).value(1).AsString(), "lead");
  EXPECT_EQ(staff->tuple(1).value(2).AsOngoingInterval().ToString(),
            "[06/01, now)");
}

// A DELETE or UPDATE at tc applies to the rows whose valid time closing
// at tc changes: after the first UPDATE closed row 1 at 03/01, a later
// UPDATE and DELETE of it match no row, and the table keeps exactly the
// closed row and its new version.
TEST_F(StatementTest, ModificationsSkipRowsAlreadyClosed) {
  ASSERT_TRUE(Run("CREATE TABLE T (A INT, VT PERIOD)").ok());
  ASSERT_TRUE(Run("INSERT INTO T VALUES (1, PERIOD ['01/01', NOW))").ok());
  auto first = Run("UPDATE T SET A = 5 WHERE A = 1 AT DATE '03/01'");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->result.message, "1 row(s) updated");
  auto second = Run("UPDATE T SET A = 6 WHERE A = 1 AT DATE '04/01'");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->result.affected, 0u);
  EXPECT_EQ(second->result.message, "0 row(s) updated");
  auto deleted = Run("DELETE FROM T WHERE A = 1 AT DATE '05/01'");
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ(deleted->result.affected, 0u);
  EXPECT_EQ(deleted->result.message, "0 row(s) logically deleted");

  auto select = Run("SELECT * FROM T");
  ASSERT_TRUE(select.ok()) << select.status();
  ASSERT_TRUE(select->result.relation.has_value());
  const OngoingRelation& t = *select->result.relation;
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.tuple(0).value(0).AsInt64(), 1);
  EXPECT_EQ(t.tuple(0).value(1).AsOngoingInterval().ToString(),
            "[01/01, +03/01)");
  EXPECT_EQ(t.tuple(1).value(0).AsInt64(), 5);
  EXPECT_EQ(t.tuple(1).value(1).AsOngoingInterval().ToString(),
            "[03/01, now)");
}

TEST_F(StatementTest, ModificationRejectsOngoingPredicates) {
  ASSERT_TRUE(Run("CREATE TABLE Bugs (BID INT, VT PERIOD)").ok());
  ASSERT_TRUE(
      Run("INSERT INTO Bugs VALUES (1, PERIOD ['01/01', NOW))").ok());
  // Predicates over the ongoing VT attribute are not allowed in
  // modifications.
  EXPECT_FALSE(Run("DELETE FROM Bugs WHERE VT OVERLAPS "
                   "PERIOD ['01/01', '02/01') AT DATE '06/01'")
                   .ok());
}

// A WHERE clause that fails to evaluate fails its modification, which
// then publishes nothing; an unknown column is NotFound, as in a SELECT.
TEST_F(StatementTest, ModificationWhereErrorsFailTheStatement) {
  ASSERT_TRUE(Run("CREATE TABLE T (A INT, VT PERIOD)").ok());
  ASSERT_TRUE(Run("INSERT INTO T VALUES (1, PERIOD ['01/01', NOW))").ok());
  const uint64_t seq = catalog_.commit_seq();
  const auto expect_failure = [&](const std::string& statement,
                                  StatusCode code) {
    SCOPED_TRACE(statement);
    auto result = Run(statement);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), code) << result.status();
    EXPECT_EQ(catalog_.commit_seq(), seq);
  };
  expect_failure("SELECT * FROM T WHERE A = 'x'", StatusCode::kTypeError);
  expect_failure("DELETE FROM T WHERE A = 'x' AT DATE '05/01'",
                 StatusCode::kTypeError);
  expect_failure("UPDATE T SET A = 2 WHERE A = 'x' AT DATE '05/01'",
                 StatusCode::kTypeError);
  expect_failure("SELECT * FROM T WHERE Nope = 1", StatusCode::kNotFound);
  expect_failure("DELETE FROM T WHERE Nope = 1 AT DATE '05/01'",
                 StatusCode::kNotFound);
  expect_failure("UPDATE T SET A = 2 WHERE Nope = 1 AT DATE '05/01'",
                 StatusCode::kNotFound);
  auto t = Table("T");
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->tuple(0).value(1).AsOngoingInterval().ToString(),
            "[01/01, now)");
}

TEST_F(StatementTest, SyntaxErrors) {
  EXPECT_FALSE(Run("").ok());
  EXPECT_FALSE(Run("DROP TABLE x").ok());
  EXPECT_FALSE(Run("CREATE TABLE").ok());
  EXPECT_FALSE(Run("INSERT INTO").ok());
  ASSERT_TRUE(Run("CREATE TABLE T (A INT, VT PERIOD)").ok());
  EXPECT_FALSE(Run("DELETE FROM T WHERE A = 1").ok());  // missing AT
  EXPECT_FALSE(Run("UPDATE T SET A 5 AT DATE '01/01'").ok());
  EXPECT_FALSE(Run("INSERT INTO T VALUES (1, PERIOD ['01/01', NOW)").ok());
}

// Every statement kind ends at an optional ';'. Input after that is an
// error, never ignored: a DELETE that dropped "OR A = 2" would close
// fewer rows than written.
TEST_F(StatementTest, TrailingInputIsRejected) {
  ASSERT_TRUE(Run("CREATE TABLE T (A INT, VT PERIOD)").ok());
  ASSERT_TRUE(Run("INSERT INTO T VALUES (1, PERIOD ['01/01', NOW))").ok());
  ASSERT_TRUE(Run("INSERT INTO T VALUES (2, PERIOD ['01/01', NOW))").ok());
  for (const char* statement :
       {"DELETE FROM T WHERE A = 1 AT DATE '03/01' OR A = 2",
        "UPDATE T SET A = 7 WHERE A = 2 AT DATE '04/01' whatever trailing",
        "CREATE TABLE U (A INT, VT PERIOD) garbage here",
        "CREATE TABLE U (A INT, VT PERIOD);;",
        "INSERT INTO T VALUES (3, PERIOD ['01/01', NOW)) extra",
        "SELECT * FROM T WHERE A = 1; more"}) {
    ExpectRejected(statement, "unexpected trailing input");
  }
  EXPECT_FALSE(catalog_.PinSnapshot().Get("U").ok());
  auto t = Table("T");
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ(t->tuple(0).value(1).AsOngoingInterval().ToString(),
            "[01/01, now)");
  EXPECT_EQ(t->tuple(1).value(1).AsOngoingInterval().ToString(),
            "[01/01, now)");

  // One trailing ';' ends any statement.
  for (const char* statement :
       {"CREATE TABLE U (A INT, VT PERIOD);",
        "INSERT INTO T VALUES (3, PERIOD ['01/01', NOW));",
        "DELETE FROM T WHERE A = 1 AT DATE '03/01';",
        "UPDATE T SET A = 7 WHERE A = 2 AT DATE '04/01' ;",
        "SELECT * FROM T;"}) {
    SCOPED_TRACE(statement);
    auto result = Run(statement);
    ASSERT_TRUE(result.ok()) << result.status();
  }
}

// UPDATE cannot assign the valid-time column: Torp's update sets the
// new version's valid time to [tc, now) itself, so the assigned value
// would be dropped. Nor may a column be assigned twice.
TEST_F(StatementTest, UpdateRejectsValidTimeAndRepeatedAssignments) {
  ASSERT_TRUE(Run("CREATE TABLE T (A INT, B INT, VT PERIOD)").ok());
  ASSERT_TRUE(
      Run("INSERT INTO T VALUES (1, 10, PERIOD ['01/01', NOW))").ok());
  ExpectRejected(
      "UPDATE T SET VT = PERIOD ['05/01', '05/02') WHERE A = 1 "
      "AT DATE '03/01'",
      "'VT'");
  ExpectRejected(
      "UPDATE T SET B = 11, VT = PERIOD ['05/01', '05/02') WHERE A = 1 "
      "AT DATE '03/01'",
      "'VT'");
  ExpectRejected("UPDATE T SET A = 5, A = 6 WHERE A = 1 AT DATE '03/01'",
                 "'A'");
  ExpectRejected("UPDATE T SET A = 5, B = 11, A = 5 AT DATE '03/01'", "'A'");
  auto t = Table("T");
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->tuple(0).value(0).AsInt64(), 1);

  // Distinct non-temporal columns still update together.
  auto updated = Run("UPDATE T SET A = 5, B = 11 WHERE A = 1 AT DATE '03/01'");
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(updated->result.affected, 1u);
  t = Table("T");
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ(t->tuple(1).value(0).AsInt64(), 5);
  EXPECT_EQ(t->tuple(1).value(1).AsInt64(), 11);
  EXPECT_EQ(t->tuple(1).value(2).AsOngoingInterval().ToString(),
            "[03/01, now)");
}

TEST_F(StatementTest, EndToEndLifecycle) {
  // Create, fill, modify, query — and the query result reflects the
  // modification history at each reference time.
  ASSERT_TRUE(Run("CREATE TABLE C (ID INT, VT PERIOD)").ok());
  ASSERT_TRUE(Run("INSERT INTO C VALUES (1, PERIOD ['01/01', NOW))").ok());
  ASSERT_TRUE(Run("DELETE FROM C WHERE ID = 1 AT DATE '03/01'").ok());
  auto result = Run("SELECT * FROM C WHERE VT CONTAINS DATE '02/01'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->result.relation->size(), 1u);
  // [01/01, +03/01) contains 02/01 from 02/02 on, at every later
  // reference time (the deletion capped the end at 03/01 > 02/01).
  EXPECT_EQ(result->result.relation->tuple(0).rt(),
            (IntervalSet{{MD(2, 2), kMaxInfinity}}));
}

}  // namespace
}  // namespace ongoingdb
