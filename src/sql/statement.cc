#include "sql/statement.h"

#include <algorithm>

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
Result<ParsedStatement> ParseCreateTable(const std::vector<Token>& tokens,
                                         size_t pos) {
  // "TABLE" is not a reserved keyword; accept identifier spelling.
  if (Upper(tokens[pos].text) != "TABLE") {
    return FailAt(tokens, pos, "expected TABLE");
  }
  ++pos;
  if (!tokens[pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, pos, "expected table name");
  }
  ParsedStatement ps;
  ps.kind = StatementKind::kCreateTable;
  ps.table = tokens[pos++].text;
  if (!tokens[pos].IsPunct("(")) return FailAt(tokens, pos, "expected '('");
  ++pos;
  while (true) {
    if (!tokens[pos].Is(TokenType::kIdentifier)) {
      return FailAt(tokens, pos, "expected column name");
    }
    std::string column = tokens[pos++].text;
    ONGOINGDB_ASSIGN_OR_RETURN(ValueType type,
                               ParseColumnType(tokens, &pos));
    ONGOINGDB_RETURN_NOT_OK(ps.schema.AddAttribute(std::move(column), type));
    if (tokens[pos].IsPunct(",")) {
      ++pos;
      continue;
    }
    break;
  }
  if (!tokens[pos].IsPunct(")")) return FailAt(tokens, pos, "expected ')'");
  ++pos;
  return ps;
}

// INSERT INTO name VALUES (lit, ...)
Result<ParsedStatement> ParseInsert(const std::vector<Token>& tokens,
                                    size_t pos, const Catalog& catalog) {
  if (Upper(tokens[pos].text) != "INTO") {
    return FailAt(tokens, pos, "expected INTO");
  }
  ++pos;
  if (!tokens[pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, pos, "expected table name");
  }
  ParsedStatement ps;
  ps.kind = StatementKind::kInsert;
  ps.table = tokens[pos].text;
  // Fail early when the table is unknown (the values may still be
  // parseable, but the statement cannot apply anywhere).
  ONGOINGDB_RETURN_NOT_OK(catalog.Get(ps.table).status());
  ++pos;
  if (Upper(tokens[pos].text) != "VALUES") {
    return FailAt(tokens, pos, "expected VALUES");
  }
  ++pos;
  if (!tokens[pos].IsPunct("(")) return FailAt(tokens, pos, "expected '('");
  ++pos;
  while (true) {
    ONGOINGDB_ASSIGN_OR_RETURN(Value v, ParseLiteralFragment(tokens, &pos));
    ps.values.push_back(std::move(v));
    if (tokens[pos].IsPunct(",")) {
      ++pos;
      continue;
    }
    break;
  }
  if (!tokens[pos].IsPunct(")")) return FailAt(tokens, pos, "expected ')'");
  ++pos;
  if (tokens[pos].IsPunct(";")) ++pos;
  if (!tokens[pos].Is(TokenType::kEnd)) {
    return FailAt(tokens, pos, "unexpected trailing input");
  }
  return ps;
}

// Shared by DELETE/UPDATE: parses [WHERE expr] AT DATE 'tc', returning
// the (fixed-only) filter and commit time.
Result<std::pair<ExprPtr, TimePoint>> ParseWhereAt(
    const std::vector<Token>& tokens, size_t* pos, const Schema& schema) {
  ExprPtr predicate;
  if (tokens[*pos].IsKeyword("WHERE")) {
    ++*pos;
    ONGOINGDB_ASSIGN_OR_RETURN(predicate,
                               ParseExpressionFragment(tokens, pos));
    if (!predicate->IsFixedOnly(schema)) {
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
  ONGOINGDB_ASSIGN_OR_RETURN(TimePoint tc,
                             ParseTimePoint(tokens[*pos].text));
  ++*pos;
  return std::make_pair(predicate, tc);
}

// DELETE FROM name [WHERE pred] AT DATE 'tc'
Result<ParsedStatement> ParseDelete(const std::vector<Token>& tokens,
                                    size_t pos, const Catalog& catalog) {
  if (!tokens[pos].IsKeyword("FROM")) {
    return FailAt(tokens, pos, "expected FROM");
  }
  ++pos;
  if (!tokens[pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, pos, "expected table name");
  }
  ParsedStatement ps;
  ps.kind = StatementKind::kDelete;
  ps.table = tokens[pos].text;
  ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* relation,
                             catalog.Get(ps.table));
  ++pos;
  ONGOINGDB_ASSIGN_OR_RETURN(auto where_at,
                             ParseWhereAt(tokens, &pos, relation->schema()));
  ONGOINGDB_ASSIGN_OR_RETURN(ps.vt_index, VtIndexOf(relation->schema()));
  ps.predicate = std::move(where_at.first);
  ps.tc = where_at.second;
  return ps;
}

// UPDATE name SET col = lit [, ...] [WHERE pred] AT DATE 'tc'
Result<ParsedStatement> ParseUpdate(const std::vector<Token>& tokens,
                                    size_t pos, const Catalog& catalog) {
  if (!tokens[pos].Is(TokenType::kIdentifier)) {
    return FailAt(tokens, pos, "expected table name");
  }
  ParsedStatement ps;
  ps.kind = StatementKind::kUpdate;
  ps.table = tokens[pos].text;
  ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* relation,
                             catalog.Get(ps.table));
  ++pos;
  if (Upper(tokens[pos].text) != "SET") {
    return FailAt(tokens, pos, "expected SET");
  }
  ++pos;
  while (true) {
    if (!tokens[pos].Is(TokenType::kIdentifier)) {
      return FailAt(tokens, pos, "expected column name");
    }
    ONGOINGDB_ASSIGN_OR_RETURN(size_t idx,
                               relation->schema().IndexOf(tokens[pos].text));
    ++pos;
    if (!tokens[pos].Is(TokenType::kOperator) || tokens[pos].text != "=") {
      return FailAt(tokens, pos, "expected '='");
    }
    ++pos;
    ONGOINGDB_ASSIGN_OR_RETURN(Value v, ParseLiteralFragment(tokens, &pos));
    if (v.type() != relation->schema().attribute(idx).type) {
      return Status::TypeError("assignment type mismatch for column '" +
                               relation->schema().attribute(idx).name + "'");
    }
    ps.assignments.emplace_back(idx, std::move(v));
    if (tokens[pos].IsPunct(",")) {
      ++pos;
      continue;
    }
    break;
  }
  ONGOINGDB_ASSIGN_OR_RETURN(auto where_at,
                             ParseWhereAt(tokens, &pos, relation->schema()));
  ONGOINGDB_ASSIGN_OR_RETURN(ps.vt_index, VtIndexOf(relation->schema()));
  ps.predicate = std::move(where_at.first);
  ps.tc = where_at.second;
  return ps;
}

}  // namespace

ModificationFilter MakeModificationFilter(const ExprPtr& predicate,
                                          const Schema& schema) {
  if (predicate == nullptr) return [](const Tuple&) { return true; };
  return [predicate, schema](const Tuple& t) {
    auto keep = predicate->EvalPredicateFixed(schema, t);
    return keep.ok() && *keep;
  };
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

Result<ParsedStatement> ParseStatement(const std::string& statement,
                                       const Catalog& catalog) {
  ONGOINGDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(statement));
  if (tokens.empty() || tokens[0].Is(TokenType::kEnd)) {
    return Status::InvalidArgument("empty statement");
  }
  if (tokens[0].IsKeyword("SELECT")) {
    ParsedStatement ps;
    ps.kind = StatementKind::kSelect;
    ps.text = statement;
    return ps;
  }
  const std::string first = Upper(tokens[0].text);
  if (first == "CREATE") return ParseCreateTable(tokens, 1);
  if (first == "INSERT") return ParseInsert(tokens, 1, catalog);
  if (first == "DELETE") return ParseDelete(tokens, 1, catalog);
  if (first == "UPDATE") return ParseUpdate(tokens, 1, catalog);
  return Status::InvalidArgument("unknown statement '" + tokens[0].text +
                                 "'");
}

Result<StatementResult> ApplyStatement(const ParsedStatement& ps,
                                       Catalog* catalog, QueryContext* ctx) {
  StatementResult result;
  switch (ps.kind) {
    case StatementKind::kSelect: {
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation relation,
                                 RunQuery(ps.text, *catalog, ctx));
      result.affected = relation.size();
      result.message = std::to_string(relation.size()) + " row(s)";
      result.relation = std::move(relation);
      return result;
    }
    case StatementKind::kCreateTable: {
      if (catalog->Contains(ps.table)) {
        return Status::AlreadyExists("table '" + ps.table +
                                     "' already exists");
      }
      catalog->Register(ps.table, OngoingRelation(ps.schema));
      result.message = "table '" + ps.table + "' created";
      return result;
    }
    case StatementKind::kInsert: {
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation * relation,
                                 catalog->GetMutable(ps.table));
      ONGOINGDB_RETURN_NOT_OK(relation->Insert(ps.values));
      result.message = "1 row inserted";
      result.affected = 1;
      return result;
    }
    case StatementKind::kDelete: {
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation * relation,
                                 catalog->GetMutable(ps.table));
      ONGOINGDB_ASSIGN_OR_RETURN(
          size_t deleted,
          TemporalDelete(
              relation, ps.vt_index, ps.tc,
              MakeModificationFilter(ps.predicate, relation->schema())));
      result.affected = deleted;
      result.message =
          std::to_string(deleted) + " row(s) logically deleted";
      return result;
    }
    case StatementKind::kUpdate: {
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation * relation,
                                 catalog->GetMutable(ps.table));
      ONGOINGDB_ASSIGN_OR_RETURN(
          size_t updated,
          TemporalUpdate(
              relation, ps.vt_index, ps.tc,
              MakeModificationFilter(ps.predicate, relation->schema()),
              MakeAssignmentUpdater(ps.assignments)));
      result.affected = updated;
      result.message = std::to_string(updated) + " row(s) updated";
      return result;
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<StatementResult> RunStatement(const std::string& statement,
                                     Catalog* catalog, QueryContext* ctx) {
  ONGOINGDB_ASSIGN_OR_RETURN(ParsedStatement ps,
                             ParseStatement(statement, *catalog));
  return ApplyStatement(ps, catalog, ctx);
}

}  // namespace sql
}  // namespace ongoingdb
