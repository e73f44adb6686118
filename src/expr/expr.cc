#include "expr/expr.h"

#include "core/ongoing_int.h"
#include "core/operations.h"

namespace ongoingdb {

Result<OngoingBoolean> Expr::EvalPredicate(const Schema&, const Tuple&) const {
  return Status::TypeError("expression '" + ToString() +
                           "' is not a predicate");
}

Result<Value> Expr::EvalScalar(const Schema&, const Tuple&) const {
  return Status::TypeError("expression '" + ToString() + "' is not scalar");
}

Result<bool> Expr::EvalPredicateFixed(const Schema&, const Tuple&,
                                      TimePoint) const {
  return Status::TypeError("expression '" + ToString() +
                           "' is not a predicate");
}

Result<Value> Expr::EvalScalarFixed(const Schema& schema, const Tuple& tuple,
                                    TimePoint) const {
  return EvalScalar(schema, tuple);
}

namespace {

// --- helpers ---------------------------------------------------------------

bool IsPointFamily(ValueType t) {
  return t == ValueType::kTimePoint || t == ValueType::kOngoingTimePoint;
}

bool IsIntervalFamily(ValueType t) {
  return t == ValueType::kFixedInterval || t == ValueType::kOngoingInterval;
}

OngoingTimePoint LiftPoint(const Value& v) {
  return v.type() == ValueType::kTimePoint
             ? OngoingTimePoint::Fixed(v.AsTime())
             : v.AsOngoingPoint();
}

OngoingInterval LiftInterval(const Value& v) {
  if (v.type() == ValueType::kFixedInterval) {
    FixedInterval f = v.AsInterval();
    return OngoingInterval::Fixed(f.start, f.end);
  }
  return v.AsOngoingInterval();
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kGe: return ">=";
    case CompareOp::kGt: return ">";
  }
  return "?";
}

const char* AllenOpName(AllenOp op) {
  switch (op) {
    case AllenOp::kBefore: return "before";
    case AllenOp::kMeets: return "meets";
    case AllenOp::kOverlaps: return "overlaps";
    case AllenOp::kStarts: return "starts";
    case AllenOp::kFinishes: return "finishes";
    case AllenOp::kDuring: return "during";
    case AllenOp::kEquals: return "equals";
  }
  return "?";
}

}  // namespace

Result<bool> EvalCompareFixed(CompareOp op, const Value& a, const Value& b) {
  bool out;
  if (TryCompareFixed(op, a, b, &out)) return out;
  if (a.type() == ValueType::kFixedInterval &&
      b.type() == ValueType::kFixedInterval) {
    return Status::TypeError("intervals support only = and != comparisons");
  }
  return Status::TypeError(std::string("cannot compare ") +
                           ValueTypeToString(a.type()) + " with " +
                           ValueTypeToString(b.type()));
}

Result<OngoingBoolean> EvalCompare(CompareOp op, const Value& a,
                                   const Value& b) {
  if (IsPointFamily(a.type()) && IsPointFamily(b.type())) {
    OngoingTimePoint x = LiftPoint(a), y = LiftPoint(b);
    switch (op) {
      case CompareOp::kLt: return Less(x, y);
      case CompareOp::kLe: return LessEqual(x, y);
      case CompareOp::kEq: return Equal(x, y);
      case CompareOp::kNe: return NotEqual(x, y);
      case CompareOp::kGe: return GreaterEqual(x, y);
      case CompareOp::kGt: return Greater(x, y);
    }
  }
  if (IsIntervalFamily(a.type()) && IsIntervalFamily(b.type())) {
    OngoingInterval x = LiftInterval(a), y = LiftInterval(b);
    if (op == CompareOp::kEq) {
      return Equal(x.start(), y.start()).And(Equal(x.end(), y.end()));
    }
    if (op == CompareOp::kNe) {
      return (Equal(x.start(), y.start()).And(Equal(x.end(), y.end()))).Not();
    }
    return Status::TypeError("intervals support only = and != comparisons");
  }
  // Fixed value families: constant result.
  ONGOINGDB_ASSIGN_OR_RETURN(bool v, EvalCompareFixed(op, a, b));
  return OngoingBoolean::FromBool(v);
}


Result<OngoingBoolean> EvalAllen(AllenOp op, const Value& a, const Value& b) {
  if (!IsIntervalFamily(a.type()) || !IsIntervalFamily(b.type())) {
    return Status::TypeError("Allen predicate requires interval operands");
  }
  OngoingInterval x = LiftInterval(a), y = LiftInterval(b);
  switch (op) {
    case AllenOp::kBefore: return Before(x, y);
    case AllenOp::kMeets: return Meets(x, y);
    case AllenOp::kOverlaps: return Overlaps(x, y);
    case AllenOp::kStarts: return Starts(x, y);
    case AllenOp::kFinishes: return Finishes(x, y);
    case AllenOp::kDuring: return During(x, y);
    case AllenOp::kEquals: return Equals(x, y);
  }
  return Status::Internal("unreachable");
}

Result<bool> EvalAllenFixed(AllenOp op, const Value& a, const Value& b) {
  bool out;
  if (TryAllenFixed(op, a, b, &out)) return out;
  return Status::TypeError(
      "fixed Allen predicate requires fixed interval operands");
}

Result<OngoingBoolean> EvalContains(const Value& interval,
                                    const Value& point) {
  if (!IsIntervalFamily(interval.type()) || !IsPointFamily(point.type())) {
    return Status::TypeError("contains requires an interval and a time point");
  }
  return Contains(LiftInterval(interval), LiftPoint(point));
}

Result<bool> EvalContainsFixed(const Value& interval, const Value& point) {
  bool out;
  if (TryContainsFixed(interval, point, &out)) return out;
  return Status::TypeError(
      "fixed contains requires a fixed interval and time point");
}

namespace {

// --- node classes ----------------------------------------------------------

class ColumnExpr final : public Expr {
 public:
  explicit ColumnExpr(std::string name)
      : Expr(ExprKind::kColumn), name_(std::move(name)) {}

  bool IsFixedOnly(const Schema& schema) const override {
    auto idx = schema.IndexOf(name_);
    if (!idx.ok()) return false;
    return !IsOngoingType(schema.attribute(*idx).type);
  }

  Result<Value> EvalScalar(const Schema& schema,
                           const Tuple& tuple) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name_));
    return tuple.value(idx);
  }

  std::string ToString() const override { return name_; }

  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&
                             rename) const override {
    return Col(rename(name_));
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value_(std::move(value)) {}

  bool IsFixedOnly(const Schema&) const override {
    return !IsOngoingType(value_.type());
  }

  Result<Value> EvalScalar(const Schema&, const Tuple&) const override {
    return value_;
  }

  void CollectColumns(std::vector<std::string>*) const override {}

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&)
      const override {
    return std::make_shared<LiteralExpr>(value_);
  }

  Result<Value> EvalScalarFixed(const Schema&, const Tuple&,
                                TimePoint rt) const override {
    // Clifford semantics: ongoing literals are instantiated at the
    // reference time when accessed.
    return value_.Instantiate(rt);
  }

  std::string ToString() const override { return value_.ToString(); }

  const Value& value() const { return value_; }

 private:
  Value value_;
};

class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kCompare),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  bool IsFixedOnly(const Schema& schema) const override {
    return lhs_->IsFixedOnly(schema) && rhs_->IsFixedOnly(schema);
  }

  Result<OngoingBoolean> EvalPredicate(const Schema& schema,
                                       const Tuple& tuple) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a, lhs_->EvalScalar(schema, tuple));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b, rhs_->EvalScalar(schema, tuple));
    return EvalCompare(op_, a, b);
  }

  Result<bool> EvalPredicateFixed(const Schema& schema, const Tuple& tuple,
                                  TimePoint rt) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a,
                               lhs_->EvalScalarFixed(schema, tuple, rt));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b,
                               rhs_->EvalScalarFixed(schema, tuple, rt));
    return EvalCompareFixed(op_, a, b);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + CompareOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&
                             rename) const override {
    return Compare(op_, lhs_->RewriteColumns(rename),
                   rhs_->RewriteColumns(rename));
  }

  CompareOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  CompareOp op_;
  ExprPtr lhs_, rhs_;
};

class AllenExpr final : public Expr {
 public:
  AllenExpr(AllenOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kAllen),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  bool IsFixedOnly(const Schema& schema) const override {
    return lhs_->IsFixedOnly(schema) && rhs_->IsFixedOnly(schema);
  }

  Result<OngoingBoolean> EvalPredicate(const Schema& schema,
                                       const Tuple& tuple) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a, lhs_->EvalScalar(schema, tuple));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b, rhs_->EvalScalar(schema, tuple));
    return EvalAllen(op_, a, b);
  }

  Result<bool> EvalPredicateFixed(const Schema& schema, const Tuple& tuple,
                                  TimePoint rt) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a,
                               lhs_->EvalScalarFixed(schema, tuple, rt));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b,
                               rhs_->EvalScalarFixed(schema, tuple, rt));
    return EvalAllenFixed(op_, a, b);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&
                             rename) const override {
    return Allen(op_, lhs_->RewriteColumns(rename),
                 rhs_->RewriteColumns(rename));
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + AllenOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

  AllenOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  AllenOp op_;
  ExprPtr lhs_, rhs_;
};

class LogicalExpr final : public Expr {
 public:
  LogicalExpr(ExprKind kind, ExprPtr lhs, ExprPtr rhs)
      : Expr(kind), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  bool IsFixedOnly(const Schema& schema) const override {
    return lhs_->IsFixedOnly(schema) &&
           (rhs_ == nullptr || rhs_->IsFixedOnly(schema));
  }

  Result<OngoingBoolean> EvalPredicate(const Schema& schema,
                                       const Tuple& tuple) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(OngoingBoolean a,
                               lhs_->EvalPredicate(schema, tuple));
    if (kind() == ExprKind::kNot) return a.Not();
    // Short-circuit: `a` already constant decides conjunction/disjunction.
    if (kind() == ExprKind::kAnd && a.IsAlwaysFalse()) return a;
    if (kind() == ExprKind::kOr && a.IsAlwaysTrue()) return a;
    ONGOINGDB_ASSIGN_OR_RETURN(OngoingBoolean b,
                               rhs_->EvalPredicate(schema, tuple));
    // Constant operands are identities or absorbers of the connective;
    // returning the other operand outright skips a sweep and a copy on
    // the per-tuple path (fixed conjuncts evaluate to constants).
    if (kind() == ExprKind::kAnd) {
      if (b.IsAlwaysTrue()) return a;
      if (b.IsAlwaysFalse()) return b;
      return a.And(b);
    }
    if (b.IsAlwaysFalse()) return a;
    if (b.IsAlwaysTrue()) return b;
    return a.Or(b);
  }

  Result<bool> EvalPredicateFixed(const Schema& schema, const Tuple& tuple,
                                  TimePoint rt) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(bool a,
                               lhs_->EvalPredicateFixed(schema, tuple, rt));
    if (kind() == ExprKind::kNot) return !a;
    if (kind() == ExprKind::kAnd && !a) return false;
    if (kind() == ExprKind::kOr && a) return true;
    return rhs_->EvalPredicateFixed(schema, tuple, rt);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    if (rhs_ != nullptr) rhs_->CollectColumns(out);
  }

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&
                             rename) const override {
    return std::make_shared<LogicalExpr>(
        kind(), lhs_->RewriteColumns(rename),
        rhs_ == nullptr ? nullptr : rhs_->RewriteColumns(rename));
  }

  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  std::string ToString() const override {
    if (kind() == ExprKind::kNot) return "not " + lhs_->ToString();
    return "(" + lhs_->ToString() +
           (kind() == ExprKind::kAnd ? " and " : " or ") + rhs_->ToString() +
           ")";
  }

 private:
  ExprPtr lhs_, rhs_;
};

class IntersectScalarExpr final : public Expr {
 public:
  IntersectScalarExpr(ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kIntersect),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  bool IsFixedOnly(const Schema& schema) const override {
    return lhs_->IsFixedOnly(schema) && rhs_->IsFixedOnly(schema);
  }

  Result<Value> EvalScalar(const Schema& schema,
                           const Tuple& tuple) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a, lhs_->EvalScalar(schema, tuple));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b, rhs_->EvalScalar(schema, tuple));
    if (!IsIntervalFamily(a.type()) || !IsIntervalFamily(b.type())) {
      return Status::TypeError("intersection requires interval operands");
    }
    if (a.type() == ValueType::kFixedInterval &&
        b.type() == ValueType::kFixedInterval) {
      return Value::Interval(IntersectF(a.AsInterval(), b.AsInterval()));
    }
    return Value::Ongoing(Intersect(LiftInterval(a), LiftInterval(b)));
  }

  Result<Value> EvalScalarFixed(const Schema& schema, const Tuple& tuple,
                                TimePoint rt) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a,
                               lhs_->EvalScalarFixed(schema, tuple, rt));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b,
                               rhs_->EvalScalarFixed(schema, tuple, rt));
    if (a.type() != ValueType::kFixedInterval ||
        b.type() != ValueType::kFixedInterval) {
      return Status::TypeError(
          "fixed intersection requires fixed interval operands");
    }
    return Value::Interval(IntersectF(a.AsInterval(), b.AsInterval()));
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&
                             rename) const override {
    return IntersectExpr(lhs_->RewriteColumns(rename),
                         rhs_->RewriteColumns(rename));
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " intersect " + rhs_->ToString() + ")";
  }

 private:
  ExprPtr lhs_, rhs_;
};

class ContainsNode final : public Expr {
 public:
  ContainsNode(ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kContains), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  bool IsFixedOnly(const Schema& schema) const override {
    return lhs_->IsFixedOnly(schema) && rhs_->IsFixedOnly(schema);
  }

  Result<OngoingBoolean> EvalPredicate(const Schema& schema,
                                       const Tuple& tuple) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a, lhs_->EvalScalar(schema, tuple));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b, rhs_->EvalScalar(schema, tuple));
    return EvalContains(a, b);
  }

  Result<bool> EvalPredicateFixed(const Schema& schema, const Tuple& tuple,
                                  TimePoint rt) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value a,
                               lhs_->EvalScalarFixed(schema, tuple, rt));
    ONGOINGDB_ASSIGN_OR_RETURN(Value b,
                               rhs_->EvalScalarFixed(schema, tuple, rt));
    return EvalContainsFixed(a, b);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&
                             rename) const override {
    return ContainsExpr(lhs_->RewriteColumns(rename),
                        rhs_->RewriteColumns(rename));
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " contains " + rhs_->ToString() + ")";
  }

  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  ExprPtr lhs_, rhs_;
};

class DurationCompareExpr final : public Expr {
 public:
  DurationCompareExpr(CompareOp op, ExprPtr interval, int64_t ticks)
      : Expr(ExprKind::kDurationCmp),
        op_(op),
        interval_(std::move(interval)),
        ticks_(ticks) {}

  bool IsFixedOnly(const Schema& schema) const override {
    return interval_->IsFixedOnly(schema);
  }

  Result<OngoingBoolean> EvalPredicate(const Schema& schema,
                                       const Tuple& tuple) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value v, interval_->EvalScalar(schema, tuple));
    if (!IsIntervalFamily(v.type())) {
      return Status::TypeError("DURATION requires an interval operand");
    }
    OngoingInt duration = Duration(LiftInterval(v));
    OngoingInt bound(ticks_);
    switch (op_) {
      case CompareOp::kLt: return duration.Less(bound);
      case CompareOp::kLe: return duration.LessEqual(bound);
      case CompareOp::kEq: return duration.EqualTo(bound);
      case CompareOp::kNe: return duration.EqualTo(bound).Not();
      case CompareOp::kGe: return duration.Less(bound).Not();
      case CompareOp::kGt: return bound.Less(duration);
    }
    return Status::Internal("unreachable");
  }

  Result<bool> EvalPredicateFixed(const Schema& schema, const Tuple& tuple,
                                  TimePoint rt) const override {
    ONGOINGDB_ASSIGN_OR_RETURN(Value v,
                               interval_->EvalScalarFixed(schema, tuple, rt));
    if (v.type() != ValueType::kFixedInterval) {
      return Status::TypeError("fixed DURATION requires a fixed interval");
    }
    FixedInterval f = v.AsInterval();
    int64_t duration = f.empty() ? 0 : f.end - f.start;
    return ApplyCompare(op_, duration, ticks_);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    interval_->CollectColumns(out);
  }

  ExprPtr RewriteColumns(const std::function<std::string(const std::string&)>&
                             rename) const override {
    return DurationCompare(op_, interval_->RewriteColumns(rename), ticks_);
  }

  std::string ToString() const override {
    return "(duration(" + interval_->ToString() + ") " +
           CompareOpName(op_) + " " + std::to_string(ticks_) + ")";
  }

 private:
  CompareOp op_;
  ExprPtr interval_;
  int64_t ticks_;
};

}  // namespace

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}

ExprPtr Lit(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}
ExprPtr Lit(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr Lit(const char* v) { return Lit(Value::String(v)); }
ExprPtr Lit(OngoingInterval v) { return Lit(Value::Ongoing(v)); }
ExprPtr Lit(OngoingTimePoint v) { return Lit(Value::Ongoing(v)); }

ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kLt, std::move(lhs), std::move(rhs));
}

ExprPtr Allen(AllenOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<AllenExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr BeforeExpr(ExprPtr lhs, ExprPtr rhs) {
  return Allen(AllenOp::kBefore, std::move(lhs), std::move(rhs));
}
ExprPtr OverlapsExpr(ExprPtr lhs, ExprPtr rhs) {
  return Allen(AllenOp::kOverlaps, std::move(lhs), std::move(rhs));
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(ExprKind::kAnd, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(ExprKind::kOr, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr Not(ExprPtr operand) {
  return std::make_shared<LogicalExpr>(ExprKind::kNot, std::move(operand),
                                       nullptr);
}

ExprPtr IntersectExpr(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<IntersectScalarExpr>(std::move(lhs),
                                               std::move(rhs));
}

ExprPtr ContainsExpr(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ContainsNode>(std::move(lhs), std::move(rhs));
}

ExprPtr DurationCompare(CompareOp op, ExprPtr interval, int64_t ticks) {
  return std::make_shared<DurationCompareExpr>(op, std::move(interval),
                                               ticks);
}

namespace {

// Collects the top-level conjuncts of a predicate tree.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kAnd) {
    const auto* logical = static_cast<const LogicalExpr*>(expr.get());
    CollectConjuncts(logical->lhs(), out);
    CollectConjuncts(logical->rhs(), out);
    return;
  }
  out->push_back(expr);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr result = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = And(result, conjuncts[i]);
  }
  return result;
}

}  // namespace

std::optional<CompareParts> AsCompare(const ExprPtr& expr) {
  if (expr->kind() != ExprKind::kCompare) return std::nullopt;
  const auto* node = static_cast<const CompareExpr*>(expr.get());
  return CompareParts{node->op(), node->lhs(), node->rhs()};
}

std::optional<std::string> AsColumnName(const ExprPtr& expr) {
  if (expr->kind() != ExprKind::kColumn) return std::nullopt;
  return static_cast<const ColumnExpr*>(expr.get())->name();
}

std::optional<AllenParts> AsAllen(const ExprPtr& expr) {
  if (expr->kind() != ExprKind::kAllen) return std::nullopt;
  const auto* node = static_cast<const AllenExpr*>(expr.get());
  return AllenParts{node->op(), node->lhs(), node->rhs()};
}

std::optional<Value> AsLiteralValue(const ExprPtr& expr) {
  if (expr->kind() != ExprKind::kLiteral) return std::nullopt;
  return static_cast<const LiteralExpr*>(expr.get())->value();
}

std::optional<ContainsParts> AsContains(const ExprPtr& expr) {
  if (expr->kind() != ExprKind::kContains) return std::nullopt;
  const auto* node = static_cast<const ContainsNode*>(expr.get());
  return ContainsParts{node->lhs(), node->rhs()};
}

void CollectTopLevelConjuncts(const ExprPtr& expr,
                              std::vector<ExprPtr>* out) {
  CollectConjuncts(expr, out);
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  return CombineConjuncts(conjuncts);
}

SplitPredicate Split(const ExprPtr& predicate, const Schema& schema) {
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  std::vector<ExprPtr> fixed, ongoing;
  for (const ExprPtr& conjunct : conjuncts) {
    if (conjunct->IsFixedOnly(schema)) {
      fixed.push_back(conjunct);
    } else {
      ongoing.push_back(conjunct);
    }
  }
  return SplitPredicate{CombineConjuncts(fixed), CombineConjuncts(ongoing)};
}

}  // namespace ongoingdb
