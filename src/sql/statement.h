// SQL statements: SELECT, DDL and temporal DML against a catalog.
//
//   SELECT ...                               (grammar in parser.h)
//   CREATE TABLE name (col TYPE, ...)        TYPE: INT, TEXT, BOOL,
//                                            DATE, INTERVAL, PERIOD
//   INSERT INTO name VALUES (lit, ...)       literals as in SELECT
//   DELETE FROM name [WHERE pred] AT DATE 'tc'
//   UPDATE name SET col = lit [, ...] [WHERE pred] AT DATE 'tc'
//
// Every statement ends at an optional ';'; input after it is an error.
//
// DELETE and UPDATE use the Torp temporal modification semantics
// (relation/modifications.h): the commit time tc closes valid times with
// min(end, tc), which stays exact because Omega is closed under min. The
// WHERE predicate of a modification must reference fixed attributes only
// (the modification applies to the *tuple*, not to reference times).
// UPDATE gives each new version the valid time [tc, now), so it may not
// assign the valid-time column, nor any column twice.
//
// Parsing only reads the catalog: it resolves names against its schemas
// and builds a SELECT's plan over its relations. The serving layer
// (server/session.h) runs the result: a SELECT against the snapshot it
// was parsed against, a write through the server catalog's commit path.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "query/plan.h"
#include "relation/modifications.h"
#include "relation/relation.h"
#include "sql/catalog.h"
#include "sql/lexer.h"
#include "util/result.h"

namespace ongoingdb {
namespace sql {

/// Outcome of one statement.
struct StatementResult {
  /// Result relation for SELECT statements; nullopt for DDL/DML.
  std::optional<OngoingRelation> relation;
  /// Human-readable summary ("1 row inserted", "2 rows deleted", ...).
  std::string message;
  /// Rows affected by DML; rows returned by SELECT.
  size_t affected = 0;
};

enum class StatementKind { kSelect, kCreateTable, kInsert, kDelete, kUpdate };

/// A parsed, schema-validated statement: everything its execution needs.
struct ParsedStatement {
  StatementKind kind = StatementKind::kSelect;
  /// The statement text, as passed to ParseStatement.
  std::string text;
  /// SELECT: the logical plan. It borrows the parsing catalog's
  /// relations, so that catalog must outlive it.
  PlanPtr plan;
  /// Target table of DDL/DML.
  std::string table;
  /// CREATE TABLE: the new table's schema.
  Schema schema;
  /// INSERT: the row literals, in schema order.
  std::vector<Value> values;
  /// DELETE/UPDATE: the optional fixed-only WHERE predicate.
  ExprPtr predicate;
  /// DELETE/UPDATE: the commit time from AT DATE.
  TimePoint tc = 0;
  /// UPDATE: (column index, new value) assignments, type-checked, one
  /// per column, none to the valid-time column.
  std::vector<std::pair<size_t, Value>> assignments;
};

/// Parses one tokenized statement (Tokenize), resolving and validating
/// it against the schemas in `catalog`, which is only read. CREATE TABLE
/// existence is checked when the statement runs, not here. `text` stays
/// empty.
Result<ParsedStatement> ParseTokens(const std::vector<Token>& tokens,
                                    const Catalog& catalog);

/// Tokenizes `statement` and parses it with ParseTokens, keeping the
/// text.
Result<ParsedStatement> ParseStatement(const std::string& statement,
                                       const Catalog& catalog);

/// The ModificationFilter for a parsed WHERE predicate (nullptr matches
/// everything). The schema is captured by value: the filter may outlive
/// the catalog view it was parsed against (the serving path applies it
/// to a copy of the table's current version under the commit lock). Its
/// chunk test is the compiled WHERE's PairPredicate::RulesOut, so a
/// WHERE that leads with an INT64 column compared to an INT64 literal,
/// such as a by-ID `ID = 42`, passes over every full chunk whose range
/// cannot hold a match.
ModificationFilter MakeModificationFilter(const ExprPtr& predicate,
                                          const Schema& schema);

/// The updater applying UPDATE assignments to a tuple's values.
std::function<std::vector<Value>(const Tuple&)> MakeAssignmentUpdater(
    std::vector<std::pair<size_t, Value>> assignments);

}  // namespace sql
}  // namespace ongoingdb
