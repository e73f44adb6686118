#include "sql/statement.h"

#include <algorithm>
#include <memory>

#include "query/join.h"
#include "relation/modifications.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace ongoingdb {
namespace sql {

namespace {

Status FailAt(const std::vector<Token>& tokens, size_t pos,
              const std::string& message) {
  const Token& t = tokens[std::min(pos, tokens.size() - 1)];
  return Status::InvalidArgument(
      message + " near position " + std::to_string(t.position) +
      (t.text.empty() ? "" : " ('" + t.text + "')"));
}

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

Result<ValueType> TypeFromName(std::string name) {
  name = Upper(std::move(name));
  if (name == "INT" || name == "INTEGER" || name == "BIGINT") {
    return ValueType::kInt64;
  }
  if (name == "DOUBLE" || name == "FLOAT") return ValueType::kDouble;
  if (name == "TEXT" || name == "VARCHAR" || name == "STRING") {
    return ValueType::kString;
  }
  if (name == "BOOL" || name == "BOOLEAN") return ValueType::kBool;
  if (name == "DATE") return ValueType::kTimePoint;
  if (name == "INTERVAL") return ValueType::kFixedInterval;
  if (name == "PERIOD") return ValueType::kOngoingInterval;
  return Status::InvalidArgument("unknown column type '" + name + "'");
}

// The column-type token may be a keyword (DATE, PERIOD) or identifier.
Result<ValueType> ParseColumnType(const std::vector<Token>& tokens,
                                  size_t* pos) {
  const Token& t = tokens[*pos];
  if (t.Is(TokenType::kIdentifier) || t.Is(TokenType::kKeyword)) {
    ++*pos;
    return TypeFromName(t.text);
  }
  return FailAt(tokens, *pos, "expected column type");
}

// CREATE TABLE name (col TYPE, ...)
Status ParseCreateTable(const std::vector<Token>& tokens, size_t* pos,
                        ParsedStatement* ps) {
  // "TABLE" is not a reserved keyword; accept identifier spelling.
  if (Upper(tokens[*pos].text) != "TABLE") {
    return FailAt(tokens, *pos, "expected TABLE");
  }
  ++*pos;
  if (!tokens[*pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, *pos, "expected table name");
  }
  ps->kind = StatementKind::kCreateTable;
  ps->table = tokens[(*pos)++].text;
  if (!tokens[*pos].IsPunct("(")) return FailAt(tokens, *pos, "expected '('");
  ++*pos;
  while (true) {
    if (!tokens[*pos].Is(TokenType::kIdentifier)) {
      return FailAt(tokens, *pos, "expected column name");
    }
    std::string column = tokens[(*pos)++].text;
    ONGOINGDB_ASSIGN_OR_RETURN(ValueType type, ParseColumnType(tokens, pos));
    ONGOINGDB_RETURN_NOT_OK(ps->schema.AddAttribute(std::move(column), type));
    if (tokens[*pos].IsPunct(",")) {
      ++*pos;
      continue;
    }
    break;
  }
  if (!tokens[*pos].IsPunct(")")) return FailAt(tokens, *pos, "expected ')'");
  ++*pos;
  return Status::OK();
}

// INSERT INTO name VALUES (lit, ...)
Status ParseInsert(const std::vector<Token>& tokens, size_t* pos,
                   const Catalog& catalog, ParsedStatement* ps) {
  if (Upper(tokens[*pos].text) != "INTO") {
    return FailAt(tokens, *pos, "expected INTO");
  }
  ++*pos;
  if (!tokens[*pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, *pos, "expected table name");
  }
  ps->kind = StatementKind::kInsert;
  ps->table = tokens[*pos].text;
  // Fail early when the table is unknown (the values may still be
  // parseable, but the statement cannot apply anywhere).
  ONGOINGDB_RETURN_NOT_OK(catalog.Get(ps->table).status());
  ++*pos;
  if (Upper(tokens[*pos].text) != "VALUES") {
    return FailAt(tokens, *pos, "expected VALUES");
  }
  ++*pos;
  if (!tokens[*pos].IsPunct("(")) return FailAt(tokens, *pos, "expected '('");
  ++*pos;
  while (true) {
    ONGOINGDB_ASSIGN_OR_RETURN(Value v, ParseLiteralFragment(tokens, pos));
    ps->values.push_back(std::move(v));
    if (tokens[*pos].IsPunct(",")) {
      ++*pos;
      continue;
    }
    break;
  }
  if (!tokens[*pos].IsPunct(")")) return FailAt(tokens, *pos, "expected ')'");
  ++*pos;
  return Status::OK();
}

// Shared by DELETE/UPDATE: parses [WHERE expr] AT DATE 'tc' into the
// (fixed-only) predicate and commit time, then checks that the table
// has the valid-time column the modification closes.
Status ParseWhereAt(const std::vector<Token>& tokens, size_t* pos,
                    const Schema& schema, ParsedStatement* ps) {
  if (tokens[*pos].IsKeyword("WHERE")) {
    ++*pos;
    ONGOINGDB_ASSIGN_OR_RETURN(ps->predicate,
                               ParseExpressionFragment(tokens, pos));
    std::vector<std::string> columns;
    ps->predicate->CollectColumns(&columns);
    for (const std::string& column : columns) {
      ONGOINGDB_RETURN_NOT_OK(schema.IndexOf(column).status());
    }
    if (!ps->predicate->IsFixedOnly(schema)) {
      return Status::InvalidArgument(
          "modification predicates must reference fixed attributes only");
    }
  }
  if (Upper(tokens[*pos].text) != "AT") {
    return FailAt(tokens, *pos, "expected AT");
  }
  ++*pos;
  if (!tokens[*pos].IsKeyword("DATE")) {
    return FailAt(tokens, *pos, "expected DATE");
  }
  ++*pos;
  if (!tokens[*pos].Is(TokenType::kString)) {
    return FailAt(tokens, *pos, "expected date string");
  }
  ONGOINGDB_ASSIGN_OR_RETURN(ps->tc, ParseTimePoint(tokens[*pos].text));
  ++*pos;
  return VtIndexOf(schema).status();
}

// DELETE FROM name [WHERE pred] AT DATE 'tc'
Status ParseDelete(const std::vector<Token>& tokens, size_t* pos,
                   const Catalog& catalog, ParsedStatement* ps) {
  if (!tokens[*pos].IsKeyword("FROM")) {
    return FailAt(tokens, *pos, "expected FROM");
  }
  ++*pos;
  if (!tokens[*pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, *pos, "expected table name");
  }
  ps->kind = StatementKind::kDelete;
  ps->table = tokens[*pos].text;
  ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* relation,
                             catalog.Get(ps->table));
  ++*pos;
  return ParseWhereAt(tokens, pos, relation->schema(), ps);
}

// UPDATE name SET col = lit [, ...] [WHERE pred] AT DATE 'tc'
Status ParseUpdate(const std::vector<Token>& tokens, size_t* pos,
                   const Catalog& catalog, ParsedStatement* ps) {
  if (!tokens[*pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, *pos, "expected table name");
  }
  ps->kind = StatementKind::kUpdate;
  ps->table = tokens[*pos].text;
  ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* relation,
                             catalog.Get(ps->table));
  const Schema& schema = relation->schema();
  ++*pos;
  if (Upper(tokens[*pos].text) != "SET") {
    return FailAt(tokens, *pos, "expected SET");
  }
  ++*pos;
  const Result<size_t> vt = VtIndexOf(schema);
  while (true) {
    if (!tokens[*pos].Is(TokenType::kIdentifier)) {
      return FailAt(tokens, *pos, "expected column name");
    }
    ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(tokens[*pos].text));
    ++*pos;
    if (!tokens[*pos].Is(TokenType::kOperator) || tokens[*pos].text != "=") {
      return FailAt(tokens, *pos, "expected '='");
    }
    ++*pos;
    ONGOINGDB_ASSIGN_OR_RETURN(Value v, ParseLiteralFragment(tokens, pos));
    const std::string& column = schema.attribute(idx).name;
    if (v.type() != schema.attribute(idx).type) {
      return Status::TypeError("assignment type mismatch for column '" +
                               column + "'");
    }
    if (vt.ok() && idx == *vt) {
      return Status::InvalidArgument(
          "UPDATE cannot assign the valid-time column '" + column + "'");
    }
    for (const auto& assignment : ps->assignments) {
      if (assignment.first == idx) {
        return Status::InvalidArgument("column '" + column +
                                       "' is assigned more than once");
      }
    }
    ps->assignments.emplace_back(idx, std::move(v));
    if (tokens[*pos].IsPunct(",")) {
      ++*pos;
      continue;
    }
    break;
  }
  return ParseWhereAt(tokens, pos, schema, ps);
}

}  // namespace

ModificationFilter MakeModificationFilter(const ExprPtr& predicate,
                                          const Schema& schema) {
  if (predicate == nullptr) return [](const Tuple&) { return true; };
  // The WHERE is fixed-only (ParseWhereAt), so its boolean form is exact
  // at any reference time: every conjunct tests the stored tuple, and an
  // evaluation error fails the modification. The remainder runs only on
  // a tuple every atom holds on, so a chunk the atoms rule out holds no
  // tuple that matches or fails.
  auto pred = std::make_shared<const PairPredicate>(
      predicate, schema, /*at_reference_time=*/true, 0);
  return ModificationFilter(
      [pred, schema](const Tuple& t) -> Result<bool> {
        ONGOINGDB_ASSIGN_OR_RETURN(bool keep, pred->Holds(t));
        if (!keep) return false;
        return pred->RemainderHolds(schema, t);
      },
      [pred](const ChunkSynopsis& synopsis) {
        return pred->RulesOut(synopsis);
      });
}

std::function<std::vector<Value>(const Tuple&)> MakeAssignmentUpdater(
    std::vector<std::pair<size_t, Value>> assignments) {
  return [assignments = std::move(assignments)](const Tuple& t) {
    std::vector<Value> values = t.values();
    for (const auto& [idx, value] : assignments) {
      values[idx] = value;
    }
    return values;
  };
}

Result<ParsedStatement> ParseTokens(const std::vector<Token>& tokens,
                                    const Catalog& catalog) {
  if (tokens.empty() || tokens[0].Is(TokenType::kEnd)) {
    return Status::InvalidArgument("empty statement");
  }
  ParsedStatement ps;
  size_t pos = 1;  // past the statement's first keyword
  const std::string first = Upper(tokens[0].text);
  if (tokens[0].IsKeyword("SELECT")) {
    ps.kind = StatementKind::kSelect;
    pos = 0;  // the query parser reads SELECT itself
    ONGOINGDB_ASSIGN_OR_RETURN(ps.plan,
                               ParseQueryFragment(tokens, &pos, catalog));
  } else if (first == "CREATE") {
    ONGOINGDB_RETURN_NOT_OK(ParseCreateTable(tokens, &pos, &ps));
  } else if (first == "INSERT") {
    ONGOINGDB_RETURN_NOT_OK(ParseInsert(tokens, &pos, catalog, &ps));
  } else if (first == "DELETE") {
    ONGOINGDB_RETURN_NOT_OK(ParseDelete(tokens, &pos, catalog, &ps));
  } else if (first == "UPDATE") {
    ONGOINGDB_RETURN_NOT_OK(ParseUpdate(tokens, &pos, catalog, &ps));
  } else {
    return Status::InvalidArgument("unknown statement '" + tokens[0].text +
                                   "'");
  }
  ONGOINGDB_RETURN_NOT_OK(ExpectStatementEnd(tokens, pos));
  return ps;
}

Result<ParsedStatement> ParseStatement(const std::string& statement,
                                       const Catalog& catalog) {
  ONGOINGDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(statement));
  ONGOINGDB_ASSIGN_OR_RETURN(ParsedStatement ps, ParseTokens(tokens, catalog));
  ps.text = statement;
  return ps;
}

}  // namespace sql
}  // namespace ongoingdb
