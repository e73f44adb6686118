// SQL statements beyond SELECT: DDL and temporal DML against a catalog.
//
//   CREATE TABLE name (col TYPE, ...)        TYPE: INT, TEXT, BOOL,
//                                            DATE, INTERVAL, PERIOD
//   INSERT INTO name VALUES (lit, ...)       literals as in SELECT
//   DELETE FROM name [WHERE pred] AT DATE 'tc'
//   UPDATE name SET col = lit [, ...] [WHERE pred] AT DATE 'tc'
//   SELECT ...                               (delegates to parser.h)
//
// DELETE and UPDATE use the Torp temporal modification semantics
// (relation/modifications.h): the commit time tc closes valid times with
// min(end, tc), which stays exact because Omega is closed under min. The
// WHERE predicate of a modification must reference fixed attributes only
// (the modification applies to the *tuple*, not to reference times).
//
// Statement handling is split into parse and apply so the two execution
// paths share one grammar: RunStatement (below) parses and applies
// against an embedded catalog in one call, while the serving layer
// (server/session.h) parses against a pinned snapshot's schemas and
// routes the parsed statement through the server catalog's commit path.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "query/exec_context.h"
#include "relation/modifications.h"
#include "relation/relation.h"
#include "sql/catalog.h"
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

/// A parsed, schema-validated statement, decoupled from the catalog it
/// will be applied to. SELECT statements keep their text (the query
/// parser builds the plan at execution time against the executing
/// catalog view); DML carries the resolved pieces the apply step needs.
struct ParsedStatement {
  StatementKind kind = StatementKind::kSelect;
  /// The original statement text (used to run SELECTs).
  std::string text;
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
  /// DELETE/UPDATE: the valid-time (PERIOD) attribute index.
  size_t vt_index = 0;
  /// UPDATE: (column index, new value) assignments, type-checked.
  std::vector<std::pair<size_t, Value>> assignments;
};

/// Parses one statement, resolving and validating DML against the
/// schemas in `catalog` (which is only read). CREATE TABLE existence is
/// checked at apply time, not here — parsing is side-effect free.
Result<ParsedStatement> ParseStatement(const std::string& statement,
                                       const Catalog& catalog);

/// The ModificationFilter for a parsed WHERE predicate (nullptr matches
/// everything). The schema is captured by value: the filter may outlive
/// the catalog view it was parsed against (the serving path applies it
/// to a copy of the table's current version under the commit lock).
ModificationFilter MakeModificationFilter(const ExprPtr& predicate,
                                          const Schema& schema);

/// The updater applying UPDATE assignments to a tuple's values.
std::function<std::vector<Value>(const Tuple&)> MakeAssignmentUpdater(
    std::vector<std::pair<size_t, Value>> assignments);

/// Applies a parsed statement to an embedded catalog. SELECT execution
/// observes a non-null `ctx` (cancellation, deadline, memory budget);
/// DDL/DML run unconditionally.
Result<StatementResult> ApplyStatement(const ParsedStatement& statement,
                                       Catalog* catalog,
                                       QueryContext* ctx = nullptr);

/// Parses and executes one statement against (and possibly mutating)
/// `catalog`: ParseStatement + ApplyStatement in one call.
Result<StatementResult> RunStatement(const std::string& statement,
                                     Catalog* catalog,
                                     QueryContext* ctx = nullptr);

}  // namespace sql
}  // namespace ongoingdb
