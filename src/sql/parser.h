// Parser for the SQL-like query language: translates a query string
// directly into a logical plan (query/plan.h) against a catalog of named
// ongoing relations.
//
// Grammar (keywords case-insensitive):
//
//   query      := SELECT select_list FROM table_ref join* [WHERE expr] [;]
//   select_list:= '*' | column (',' column)*
//   table_ref  := name [AS? alias]
//   join       := [HASH] JOIN table_ref ON expr
//   expr       := and_expr (OR and_expr)*
//   and_expr   := not_expr (AND not_expr)*
//   not_expr   := NOT not_expr | '(' expr ')' | comparison
//   comparison := operand (('='|'!='|'<'|'<='|'>'|'>=') operand
//                          | (OVERLAPS|BEFORE|MEETS|STARTS|FINISHES
//                             |DURING|EQUALS) operand)
//   operand    := column | literal
//   literal    := NUMBER | 'string' | TRUE | FALSE
//              | DATE 'mm/dd'            -- fixed time point
//              | NOW                     -- the ongoing time point now
//              | PERIOD '[' point ',' point ')'   -- ongoing interval
//   point      := DATE? 'mm/dd' | NOW
//
// Join aliases become the qualification prefixes of the joined schema,
// so columns are referenced as  alias.column  after a join (e.g. b.VT).
#pragma once

#include <vector>

#include "query/plan.h"
#include "sql/catalog.h"
#include "sql/lexer.h"
#include "util/result.h"

namespace ongoingdb {
namespace sql {

/// Parses `query` into a logical plan over `catalog`'s relations. The
/// returned plan borrows the catalog's relations; the catalog must
/// outlive the plan.
Result<PlanPtr> ParseQuery(const std::string& query, const Catalog& catalog);

// --- Fragment entry points (used by the statement parser) ------------------
// The parsers start at token index *pos and advance *pos past what they
// read.

/// Parses a query (SELECT ... [WHERE expr]) into a logical plan over
/// `catalog`'s relations, leaving the statement end to the caller.
Result<PlanPtr> ParseQueryFragment(const std::vector<Token>& tokens,
                                   size_t* pos, const Catalog& catalog);

/// Parses a predicate expression.
Result<ExprPtr> ParseExpressionFragment(const std::vector<Token>& tokens,
                                        size_t* pos);

/// Parses one literal value (number, 'string', TRUE/FALSE, DATE '...',
/// NOW, PERIOD [...]).
Result<Value> ParseLiteralFragment(const std::vector<Token>& tokens,
                                   size_t* pos);

/// Succeeds when only an optional ';' is left from token index `pos`
/// on; otherwise fails with "unexpected trailing input".
Status ExpectStatementEnd(const std::vector<Token>& tokens, size_t pos);

}  // namespace sql
}  // namespace ongoingdb
