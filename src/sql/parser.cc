#include "sql/parser.h"

namespace ongoingdb {
namespace sql {

namespace {

/// Recursive-descent parser over a borrowed token stream.
class Parser {
 public:
  Parser(const std::vector<Token>& tokens, const Catalog& catalog)
      : tokens_(tokens), catalog_(catalog) {}

  // Fragment parsing for the statement layer (statement.h).
  Result<PlanPtr> ParseQueryFragment(size_t* pos) {
    pos_ = *pos;
    auto result = ParseQuery();
    *pos = pos_;
    return result;
  }

  Result<ExprPtr> ParseExprFragment(size_t* pos) {
    pos_ = *pos;
    auto result = ParseExpr();
    *pos = pos_;
    return result;
  }

  Result<Value> ParseLiteralFragment(size_t* pos) {
    pos_ = *pos;
    auto result = ParseLiteralValue();
    *pos = pos_;
    return result;
  }

  // An optional ';', then the end of the input.
  Status ExpectStatementEnd(size_t pos) {
    pos_ = pos;
    if (Peek().IsPunct(";")) Advance();
    if (!Peek().Is(TokenType::kEnd)) {
      return Fail("unexpected trailing input");
    }
    return Status::OK();
  }

  Result<PlanPtr> ParseQuery() {
    ONGOINGDB_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    bool select_all = false;
    std::vector<std::string> select_columns;
    if (Peek().IsPunct("*")) {
      Advance();
      select_all = true;
    } else {
      ONGOINGDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      select_columns.push_back(std::move(col));
      while (Peek().IsPunct(",")) {
        Advance();
        ONGOINGDB_ASSIGN_OR_RETURN(std::string next, ExpectIdentifier());
        select_columns.push_back(std::move(next));
      }
    }

    ONGOINGDB_RETURN_NOT_OK(ExpectKeyword("FROM"));
    ONGOINGDB_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* relation,
                               catalog_.Get(first.name));
    PlanPtr plan = Scan(relation, first.alias);
    std::string left_alias = first.alias;
    single_table_alias_ = first.alias;

    while (Peek().IsKeyword("JOIN") || Peek().IsKeyword("HASH")) {
      single_table_alias_.clear();  // joined query: keep qualified names
      JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
      if (Peek().IsKeyword("HASH")) {
        Advance();
        algorithm = JoinAlgorithm::kHash;
      }
      ONGOINGDB_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      ONGOINGDB_ASSIGN_OR_RETURN(TableRef right, ParseTableRef());
      ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* right_rel,
                                 catalog_.Get(right.name));
      ONGOINGDB_RETURN_NOT_OK(ExpectKeyword("ON"));
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr condition, ParseExpr());
      plan = Join(std::move(plan), Scan(right_rel, right.alias),
                  std::move(condition), left_alias, right.alias, algorithm);
    }

    if (Peek().IsKeyword("WHERE")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr predicate, ParseExpr());
      plan = Filter(std::move(plan), std::move(predicate));
    }
    if (!select_all) {
      for (std::string& col : select_columns) col = Unqualify(col);
      plan = ProjectPlan(std::move(plan), std::move(select_columns));
    }
    return plan;
  }

 private:
  struct TableRef {
    std::string name;
    std::string alias;
  };

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Fail(const std::string& message) const {
    return Status::InvalidArgument(message + " near position " +
                                   std::to_string(Peek().position) +
                                   (Peek().text.empty()
                                        ? ""
                                        : " ('" + Peek().text + "')"));
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!Peek().IsKeyword(kw)) return Fail("expected " + kw);
    Advance();
    return Status::OK();
  }

  Status ExpectPunct(const std::string& p) {
    if (!Peek().IsPunct(p)) return Fail("expected '" + p + "'");
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    if (!Peek().Is(TokenType::kIdentifier)) {
      return Fail("expected identifier");
    }
    return Advance().text;
  }

  // In single-table queries the table alias may qualify columns
  // ("b.VT"); the base schema stores unqualified names, so strip it.
  std::string Unqualify(const std::string& name) const {
    if (single_table_alias_.empty()) return name;
    const std::string prefix = single_table_alias_ + ".";
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      return name.substr(prefix.size());
    }
    return name;
  }

  Result<TableRef> ParseTableRef() {
    ONGOINGDB_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    std::string alias = name;
    if (Peek().IsKeyword("AS")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(alias, ExpectIdentifier());
    } else if (Peek().Is(TokenType::kIdentifier)) {
      alias = Advance().text;
    }
    return TableRef{std::move(name), std::move(alias)};
  }

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (Peek().IsKeyword("OR")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (Peek().IsKeyword("AND")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Not(std::move(operand));
    }
    if (Peek().IsPunct("(")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct(")"));
      return inner;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    if (Peek().IsKeyword("DURATION")) {
      Advance();
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct("("));
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr interval, ParseOperand());
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct(")"));
      if (!Peek().Is(TokenType::kOperator)) {
        return Fail("expected comparison operator after DURATION(...)");
      }
      std::string op = Advance().text;
      if (!Peek().Is(TokenType::kNumber)) {
        return Fail("expected integer bound for DURATION comparison");
      }
      int64_t ticks = std::stoll(Advance().text);
      CompareOp cmp;
      if (op == "=") {
        cmp = CompareOp::kEq;
      } else if (op == "!=") {
        cmp = CompareOp::kNe;
      } else if (op == "<") {
        cmp = CompareOp::kLt;
      } else if (op == "<=") {
        cmp = CompareOp::kLe;
      } else if (op == ">") {
        cmp = CompareOp::kGt;
      } else {
        cmp = CompareOp::kGe;
      }
      return DurationCompare(cmp, std::move(interval), ticks);
    }
    ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr left, ParseOperand());
    if (Peek().Is(TokenType::kOperator)) {
      std::string op = Advance().text;
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
      CompareOp cmp;
      if (op == "=") {
        cmp = CompareOp::kEq;
      } else if (op == "!=") {
        cmp = CompareOp::kNe;
      } else if (op == "<") {
        cmp = CompareOp::kLt;
      } else if (op == "<=") {
        cmp = CompareOp::kLe;
      } else if (op == ">") {
        cmp = CompareOp::kGt;
      } else {
        cmp = CompareOp::kGe;
      }
      return Compare(cmp, std::move(left), std::move(right));
    }
    const struct {
      const char* kw;
      AllenOp op;
    } allen_ops[] = {
        {"OVERLAPS", AllenOp::kOverlaps}, {"BEFORE", AllenOp::kBefore},
        {"MEETS", AllenOp::kMeets},       {"STARTS", AllenOp::kStarts},
        {"FINISHES", AllenOp::kFinishes}, {"DURING", AllenOp::kDuring},
        {"EQUALS", AllenOp::kEquals},
    };
    for (const auto& entry : allen_ops) {
      if (Peek().IsKeyword(entry.kw)) {
        Advance();
        ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
        return Allen(entry.op, std::move(left), std::move(right));
      }
    }
    if (Peek().IsKeyword("CONTAINS")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
      return ContainsExpr(std::move(left), std::move(right));
    }
    return Fail("expected comparison or interval predicate");
  }

  // Parses one literal into a Value (the non-column subset of
  // ParseOperand).
  Result<Value> ParseLiteralValue() {
    const Token& token = Peek();
    if (token.Is(TokenType::kNumber)) {
      Advance();
      return Value::Int64(std::stoll(token.text));
    }
    if (token.Is(TokenType::kString)) {
      Advance();
      return Value::String(token.text);
    }
    if (token.IsKeyword("TRUE") || token.IsKeyword("FALSE")) {
      Advance();
      return Value::Bool(token.text == "TRUE");
    }
    if (token.IsKeyword("DATE")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(TimePoint tp, ParseDateString());
      return Value::Time(tp);
    }
    if (token.IsKeyword("NOW")) {
      Advance();
      return Value::Ongoing(OngoingTimePoint::Now());
    }
    if (token.IsKeyword("PERIOD")) {
      Advance();
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct("["));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingTimePoint start, ParsePoint());
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct(","));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingTimePoint end, ParsePoint());
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct(")"));
      return Value::Ongoing(OngoingInterval(start, end));
    }
    return Fail("expected literal");
  }

  Result<ExprPtr> ParseOperand() {
    const Token& token = Peek();
    if (token.Is(TokenType::kIdentifier)) {
      Advance();
      return Col(Unqualify(token.text));
    }
    if (token.Is(TokenType::kNumber)) {
      Advance();
      return Lit(static_cast<int64_t>(std::stoll(token.text)));
    }
    if (token.Is(TokenType::kString)) {
      Advance();
      return Lit(Value::String(token.text));
    }
    if (token.IsKeyword("TRUE") || token.IsKeyword("FALSE")) {
      Advance();
      return Lit(Value::Bool(token.text == "TRUE"));
    }
    if (token.IsKeyword("DATE")) {
      Advance();
      ONGOINGDB_ASSIGN_OR_RETURN(TimePoint tp, ParseDateString());
      return Lit(Value::Time(tp));
    }
    if (token.IsKeyword("NOW")) {
      Advance();
      return Lit(OngoingTimePoint::Now());
    }
    if (token.IsKeyword("PERIOD")) {
      Advance();
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct("["));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingTimePoint start, ParsePoint());
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct(","));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingTimePoint end, ParsePoint());
      ONGOINGDB_RETURN_NOT_OK(ExpectPunct(")"));
      return Lit(OngoingInterval(start, end));
    }
    return Fail("expected operand");
  }

  Result<TimePoint> ParseDateString() {
    if (!Peek().Is(TokenType::kString)) {
      return Fail("expected date string");
    }
    return ParseTimePoint(Advance().text);
  }

  // A point inside a PERIOD literal: NOW, or a (possibly DATE-prefixed)
  // date string.
  Result<OngoingTimePoint> ParsePoint() {
    if (Peek().IsKeyword("NOW")) {
      Advance();
      return OngoingTimePoint::Now();
    }
    if (Peek().IsKeyword("DATE")) Advance();
    ONGOINGDB_ASSIGN_OR_RETURN(TimePoint tp, ParseDateString());
    return OngoingTimePoint::Fixed(tp);
  }

  const std::vector<Token>& tokens_;
  const Catalog& catalog_;
  size_t pos_ = 0;
  std::string single_table_alias_;
};

// Expressions, literals and the statement end name no relation.
const Catalog& NoRelations() {
  static const Catalog kEmpty;
  return kEmpty;
}

}  // namespace

Result<PlanPtr> ParseQuery(const std::string& query, const Catalog& catalog) {
  ONGOINGDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  size_t pos = 0;
  ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr plan,
                             ParseQueryFragment(tokens, &pos, catalog));
  ONGOINGDB_RETURN_NOT_OK(ExpectStatementEnd(tokens, pos));
  return plan;
}

Result<PlanPtr> ParseQueryFragment(const std::vector<Token>& tokens,
                                   size_t* pos, const Catalog& catalog) {
  return Parser(tokens, catalog).ParseQueryFragment(pos);
}

Result<ExprPtr> ParseExpressionFragment(const std::vector<Token>& tokens,
                                        size_t* pos) {
  return Parser(tokens, NoRelations()).ParseExprFragment(pos);
}

Result<Value> ParseLiteralFragment(const std::vector<Token>& tokens,
                                   size_t* pos) {
  return Parser(tokens, NoRelations()).ParseLiteralFragment(pos);
}

Status ExpectStatementEnd(const std::vector<Token>& tokens, size_t pos) {
  return Parser(tokens, NoRelations()).ExpectStatementEnd(pos);
}

}  // namespace sql
}  // namespace ongoingdb
