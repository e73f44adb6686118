// A composable predicate/scalar expression language over tuples of
// ongoing relations. Expressions evaluate in two modes:
//
//  * ongoing evaluation — yields ongoing booleans / ongoing values; used
//    by the ongoing algebra to restrict tuple reference times (Sec. VII);
//  * fixed evaluation — evaluates against an already instantiated tuple
//    with ordinary fixed semantics; used by the Clifford baseline, which
//    instantiates first and evaluates fixed predicates afterwards.
//
// The optimizer (Sec. VIII "Query Optimization") splits conjunctive
// predicates into a part that only references fixed attributes (evaluated
// as an ordinary WHERE filter) and a part referencing ongoing attributes
// (used to compute the result tuples' reference times); see Split().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/operations.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "util/result.h"

namespace ongoingdb {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Comparison operators on scalar operands.
enum class CompareOp { kLt, kLe, kEq, kNe, kGe, kGt };

/// Allen interval predicates (Table II).
enum class AllenOp {
  kBefore,
  kMeets,
  kOverlaps,
  kStarts,
  kFinishes,
  kDuring,
  kEquals,
};

/// Expression node kinds.
enum class ExprKind {
  kColumn,     ///< attribute reference by name
  kLiteral,    ///< constant value
  kCompare,    ///< scalar comparison
  kAllen,      ///< Allen predicate on intervals
  kAnd,
  kOr,
  kNot,
  kIntersect,  ///< interval intersection (scalar-valued)
  kContains,   ///< interval CONTAINS time point (timeslice predicate)
  kDurationCmp,///< DURATION(interval) <op> constant (ongoing-int predicate)
};

/// An immutable expression tree node.
class Expr : public std::enable_shared_from_this<Expr> {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }

  /// True iff the subtree references no ongoing attribute of `schema`
  /// and no ongoing literal (such a predicate does not depend on the
  /// reference time).
  virtual bool IsFixedOnly(const Schema& schema) const = 0;

  /// Ongoing evaluation of a predicate expression against a tuple.
  virtual Result<OngoingBoolean> EvalPredicate(const Schema& schema,
                                               const Tuple& tuple) const;

  /// Ongoing evaluation of a scalar expression against a tuple.
  virtual Result<Value> EvalScalar(const Schema& schema,
                                   const Tuple& tuple) const;

  /// Fixed evaluation of a predicate against an *instantiated* tuple
  /// (all ongoing attribute values already replaced by fixed values).
  /// Ongoing literals are instantiated at `rt` when accessed — the
  /// Clifford semantics of Sec. III.
  virtual Result<bool> EvalPredicateFixed(const Schema& schema,
                                          const Tuple& tuple,
                                          TimePoint rt = 0) const;

  /// Fixed evaluation of a scalar against an instantiated tuple.
  virtual Result<Value> EvalScalarFixed(const Schema& schema,
                                        const Tuple& tuple,
                                        TimePoint rt = 0) const;

  /// Appends the names of all columns referenced in this subtree.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  /// Returns a copy of this subtree with every column name replaced by
  /// rename(name). Used by the optimizer when pushing predicates below
  /// joins (qualified names like "L.K" become the child's "K").
  virtual ExprPtr RewriteColumns(
      const std::function<std::string(const std::string&)>& rename) const = 0;

  virtual std::string ToString() const = 0;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  ExprKind kind_;
};

// --- Builders --------------------------------------------------------------

/// Attribute reference, resolved by name at evaluation time ("VT",
/// "B.VT").
ExprPtr Col(std::string name);

/// Constant of any supported value type.
ExprPtr Lit(Value value);
ExprPtr Lit(int64_t v);
ExprPtr Lit(const char* v);
ExprPtr Lit(OngoingInterval v);
ExprPtr Lit(OngoingTimePoint v);

/// Scalar comparison lhs op rhs. Works on fixed scalars (ints, strings,
/// time points) and on ongoing time points (yielding time-dependent
/// booleans).
ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);

/// Allen predicate lhs op rhs on interval-valued operands.
ExprPtr Allen(AllenOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr BeforeExpr(ExprPtr lhs, ExprPtr rhs);
ExprPtr OverlapsExpr(ExprPtr lhs, ExprPtr rhs);

/// Logical connectives.
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);

/// Interval intersection lhs n rhs (scalar-valued).
ExprPtr IntersectExpr(ExprPtr lhs, ExprPtr rhs);

/// Containment predicate: interval `lhs` contains time point `rhs`.
ExprPtr ContainsExpr(ExprPtr lhs, ExprPtr rhs);

/// Duration predicate DURATION(interval) <op> ticks: the duration of an
/// ongoing interval is an ongoing integer (core/ongoing_int.h), so the
/// comparison yields a time-dependent boolean. Empty instantiations have
/// duration 0.
ExprPtr DurationCompare(CompareOp op, ExprPtr interval, int64_t ticks);

// --- Value-level predicate evaluation ----------------------------------------
// The per-kind operand dispatch of the comparison, Allen and CONTAINS
// nodes, shared with the join's pair path (query/join.h, PairPredicate)
// so a conjunct evaluated on stored tuples has the Expr node's exact
// semantics and errors. The ongoing forms lift fixed operands (a fixed
// interval is the ongoing interval [s, e)); the *Fixed forms take
// instantiated operands, as EvalPredicateFixed does.

/// `a op b` in T's order; the fixed comparisons below and DURATION's
/// share it. Forced inline, as TryCompareFixed is: in a caller as large
/// as the scan's batch loop (query/physical.cc) GCC otherwise leaves the
/// INT64 comparison of each tested tuple a call.
template <typename T>
[[gnu::always_inline]] inline bool ApplyCompare(CompareOp op, const T& a,
                                                 const T& b) {
  switch (op) {
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return a <= b;
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return a != b;
    case CompareOp::kGe: return a >= b;
    case CompareOp::kGt: return a > b;
  }
  return false;
}

/// The *Fixed forms' type dispatch, which cannot fail: on operands of
/// types the form decides, the result goes to *out and they return
/// true; on any others they return false and leave *out alone. The
/// *Fixed forms below wrap them and add the TypeError. The compiled
/// predicates (query/join.h) call them once per stored tuple, so they
/// are inline, and TryCompareFixed, which decides the INT64 atoms of a
/// point SELECT and a by-ID DELETE or UPDATE, is forced inline as
/// ApplyCompare is.
///
/// Comparison: same-type INT64, DOUBLE, STRING, BOOL or TIMEPOINT, and
/// = or != on two fixed intervals. Doubles compare in CompareDoubles'
/// order (relation/value.h), the one the key joins group by: NaN = NaN
/// holds and NaN is greater than every number.
[[gnu::always_inline]] inline bool TryCompareFixed(CompareOp op,
                                                   const Value& a,
                                                   const Value& b, bool* out) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kInt64:
      *out = ApplyCompare(op, a.AsInt64(), b.AsInt64());
      return true;
    case ValueType::kDouble:
      *out = ApplyCompare(op, CompareDoubles(a.AsDouble(), b.AsDouble()), 0);
      return true;
    case ValueType::kString:
      *out = ApplyCompare(op, a.AsString(), b.AsString());
      return true;
    case ValueType::kBool:
      *out = ApplyCompare(op, a.AsBool(), b.AsBool());
      return true;
    case ValueType::kTimePoint:
      *out = ApplyCompare(op, a.AsTime(), b.AsTime());
      return true;
    case ValueType::kFixedInterval:
      if (op != CompareOp::kEq && op != CompareOp::kNe) return false;
      *out = (a.AsInterval() == b.AsInterval()) == (op == CompareOp::kEq);
      return true;
    default:
      return false;
  }
}

/// Allen (Table II) on two fixed intervals.
inline bool TryAllenFixed(AllenOp op, const Value& a, const Value& b,
                          bool* out) {
  if (a.type() != ValueType::kFixedInterval ||
      b.type() != ValueType::kFixedInterval) {
    return false;
  }
  const FixedInterval x = a.AsInterval(), y = b.AsInterval();
  switch (op) {
    case AllenOp::kBefore: *out = BeforeF(x, y); return true;
    case AllenOp::kMeets: *out = MeetsF(x, y); return true;
    case AllenOp::kOverlaps: *out = OverlapsF(x, y); return true;
    case AllenOp::kStarts: *out = StartsF(x, y); return true;
    case AllenOp::kFinishes: *out = FinishesF(x, y); return true;
    case AllenOp::kDuring: *out = DuringF(x, y); return true;
    case AllenOp::kEquals: *out = EqualsF(x, y); return true;
  }
  return false;
}

/// CONTAINS of a fixed interval and a time point.
inline bool TryContainsFixed(const Value& interval, const Value& point,
                             bool* out) {
  if (interval.type() != ValueType::kFixedInterval ||
      point.type() != ValueType::kTimePoint) {
    return false;
  }
  *out = ContainsF(interval.AsInterval(), point.AsTime());
  return true;
}

/// Ongoing `a op b`: time-point families compare with time-dependent
/// semantics (Fig. 6), interval families support = and != only, other
/// families yield a constant boolean.
Result<OngoingBoolean> EvalCompare(CompareOp op, const Value& a,
                                   const Value& b);
Result<bool> EvalCompareFixed(CompareOp op, const Value& a, const Value& b);

/// Ongoing `a op b` for an Allen predicate; TypeError unless both
/// operands are intervals.
Result<OngoingBoolean> EvalAllen(AllenOp op, const Value& a, const Value& b);
Result<bool> EvalAllenFixed(AllenOp op, const Value& a, const Value& b);

/// Ongoing `interval CONTAINS point`; TypeError unless the operands are
/// an interval and a time point.
Result<OngoingBoolean> EvalContains(const Value& interval, const Value& point);
Result<bool> EvalContainsFixed(const Value& interval, const Value& point);

// --- Conjunction splitting (Sec. VIII) -------------------------------------

/// The two halves of a conjunctive predicate: `fixed_part` references
/// only fixed attributes and can be evaluated in the WHERE clause;
/// `ongoing_part` references ongoing attributes and restricts the result
/// tuples' reference times. Either may be null (meaning `true`).
struct SplitPredicate {
  ExprPtr fixed_part;
  ExprPtr ongoing_part;
};

/// Splits a conjunctive predicate by classifying each top-level conjunct
/// (Sec. VIII "Query Optimization").
SplitPredicate Split(const ExprPtr& predicate, const Schema& schema);

// --- Introspection (used by the join-key extraction in query/join.cc) ------

/// The parts of a comparison node; nullopt if `expr` is not a comparison.
struct CompareParts {
  CompareOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};
std::optional<CompareParts> AsCompare(const ExprPtr& expr);

/// The referenced attribute name; nullopt if `expr` is not a column
/// reference.
std::optional<std::string> AsColumnName(const ExprPtr& expr);

/// The parts of an Allen predicate node; nullopt if `expr` is not an
/// Allen node. Used by the optimizer's index-join matching
/// (query/optimizer.h, MatchIndexJoin) and the compiled predicates
/// (query/join.h, PairPredicate).
struct AllenParts {
  AllenOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};
std::optional<AllenParts> AsAllen(const ExprPtr& expr);

/// The literal's value; nullopt if `expr` is not a literal node.
std::optional<Value> AsLiteralValue(const ExprPtr& expr);

/// The parts of a containment (timeslice) predicate node; nullopt if
/// `expr` is not a kContains node. Used by the compiled predicates
/// (query/join.h, PairPredicate).
struct ContainsParts {
  ExprPtr interval;  ///< the interval-valued operand
  ExprPtr point;     ///< the time-point-valued operand
};
std::optional<ContainsParts> AsContains(const ExprPtr& expr);

/// Appends the top-level conjuncts of `expr` (flattening nested ANDs).
void CollectTopLevelConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Conjunction of `conjuncts`; nullptr when the list is empty.
ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts);

}  // namespace ongoingdb
