// Typed attribute values for ongoing relations. A relation schema mixes
// fixed attributes (integers, strings, booleans, fixed time points and
// intervals) with ongoing attributes (ongoing time points and intervals);
// Value is the runtime representation of one attribute of one tuple.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "core/ongoing_boolean.h"
#include "core/ongoing_interval.h"
#include "core/ongoing_point.h"
#include "util/result.h"

namespace ongoingdb {

/// The type of an attribute value.
enum class ValueType {
  kNull,
  kInt64,
  kDouble,
  kString,
  kBool,
  kTimePoint,        ///< fixed time point of T
  kFixedInterval,    ///< fixed time interval [s, e)
  kOngoingTimePoint, ///< ongoing time point a+b of Omega
  kOngoingInterval,  ///< ongoing time interval of Omega x Omega
};

/// Returns a short lowercase name, e.g. "int64".
const char* ValueTypeToString(ValueType type);

/// True for types whose values can change as time passes by.
inline bool IsOngoingType(ValueType type) {
  return type == ValueType::kOngoingTimePoint ||
         type == ValueType::kOngoingInterval;
}

/// The fixed type an ongoing type instantiates to (identity on fixed
/// types).
ValueType InstantiatedType(ValueType type);

/// One attribute value: a tagged union over the supported types.
class Value {
 public:
  /// Constructs a NULL value.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int64(int64_t v);
  static Value Double(double v);
  static Value String(std::string v);
  static Value Bool(bool v);
  static Value Time(TimePoint v);
  static Value Interval(FixedInterval v);
  static Value Ongoing(OngoingTimePoint v);
  static Value Ongoing(OngoingInterval v);

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  // The typed accessors are inline: predicates read them once per
  // tested tuple (query/join.h, PairPredicate).
  int64_t AsInt64() const {
    assert(type_ == ValueType::kInt64);
    return std::get<int64_t>(data_);
  }
  double AsDouble() const {
    assert(type_ == ValueType::kDouble);
    return std::get<double>(data_);
  }
  const std::string& AsString() const {
    assert(type_ == ValueType::kString);
    return *std::get<std::shared_ptr<const std::string>>(data_);
  }
  bool AsBool() const {
    assert(type_ == ValueType::kBool);
    return std::get<bool>(data_);
  }
  TimePoint AsTime() const {
    assert(type_ == ValueType::kTimePoint);
    return std::get<int64_t>(data_);
  }
  FixedInterval AsInterval() const {
    assert(type_ == ValueType::kFixedInterval);
    return std::get<FixedInterval>(data_);
  }
  const OngoingTimePoint& AsOngoingPoint() const {
    assert(type_ == ValueType::kOngoingTimePoint);
    return std::get<OngoingTimePoint>(data_);
  }
  const OngoingInterval& AsOngoingInterval() const {
    assert(type_ == ValueType::kOngoingInterval);
    return std::get<OngoingInterval>(data_);
  }

  /// The bind operator on values: ongoing values instantiate to their
  /// fixed counterparts at rt; fixed values are returned unchanged.
  Value Instantiate(TimePoint rt) const;

  /// Structural equality (same type, same representation). For ongoing
  /// values this is representation equality, not time-dependent
  /// equality; see OngoingValueEqual for the latter. String values
  /// compare by content, not by shared-payload identity.
  bool operator==(const Value& other) const;

  /// Approximate serialized width in bytes; used by the storage layer.
  size_t ByteWidth() const;

  std::string ToString() const;

 private:
  // String payloads are shared, immutable buffers: copying a string
  // Value bumps a reference count instead of allocating and copying the
  // characters. Join emission and projection copy every attribute of
  // every emitted tuple, so for string-heavy schemas this is the
  // difference between O(1) and O(len) — and one heap allocation — per
  // copied attribute (see docs/DESIGN.md, "Hot-path memory layout").
  //
  // THREADING RULE (parallel execution, query/physical.h): the payload
  // refcount is the std::shared_ptr control block, whose increments and
  // decrements are atomic in a threaded program (the library links
  // Threads PUBLIC to pin this down). Copying Values of the same shared
  // payload from different partition pipelines concurrently is
  // therefore safe, and the payload bytes themselves are immutable
  // (const std::string) — never const_cast them. What stays unsafe, as
  // for any shared_ptr, is mutating one Value *object* from two threads;
  // the exchange operators hand every tuple slot to exactly one thread
  // at a time (docs/DESIGN.md, "Parallel execution").
  //
  // Note this refcount-based sharing is the one concurrency protocol in
  // the tree that clang's thread-safety analysis cannot see — there is
  // no mutex to GUARDED_BY (the atomicity lives in the control block),
  // so this comment is the contract. Any *new* shared mutable state
  // must instead use the annotated Mutex/MutexLock from util/mutex.h
  // with GUARDED_BY fields so the compiler checks the discipline (see
  // util/thread_annotations.h and docs/DESIGN.md, "Static analysis").
  ValueType type_ = ValueType::kNull;
  std::variant<std::monostate, int64_t, double,
               std::shared_ptr<const std::string>, bool, FixedInterval,
               OngoingTimePoint, OngoingInterval>
      data_;
};

/// Boost-style 64-bit hash combining; shared by ValueHash and the typed
/// join-key hash so the two can never drift apart.
inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hash functor over Value for typed join keys and hash-based operators:
/// hash-combines the type tag with the variant payload directly — no
/// ToString formatting, no allocation. Consistent with operator==.
struct ValueHash {
  size_t operator()(const Value& v) const;
};

/// The one order on doubles, returning <0, 0, >0: numbers in IEEE
/// order (so -0.0 equals 0.0), and NaN equal to itself and greater
/// than every number (Postgres-style), so the order stays strict-weak.
/// ValueCompare orders DOUBLE values by it, and so do the fixed DOUBLE
/// comparisons (expr/expr.h), so a key join and a filter agree on NaN.
inline int CompareDoubles(double x, double y) {
  const bool x_nan = std::isnan(x), y_nan = std::isnan(y);
  if (x_nan || y_nan) return x_nan == y_nan ? 0 : (x_nan ? 1 : -1);
  return (x > y) - (x < y);
}

/// Total order over values: orders by type tag first, then by payload.
/// Returns <0, 0, >0. The key-driven joins and the view maintainer
/// compare keys with it through ValueEq.
/// Consistent with operator== except NaN doubles, which order by
/// CompareDoubles so key-driven joins group NaN keys alike.
int ValueCompare(const Value& a, const Value& b);

/// Equality functor matching ValueCompare (so NaN equals NaN, unlike
/// operator==): the companion of ValueHash for unordered containers and
/// the equality the key-driven joins group by.
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return ValueCompare(a, b) == 0;
  }
};

/// Time-dependent equality of two values as an ongoing boolean: at each
/// reference time rt, true iff ||v1||rt equals ||v2||rt. Fixed values
/// yield constant booleans; ongoing time points use the Table II `=`
/// equivalence; ongoing intervals compare endpoint-wise (structural
/// instantiated equality — see DESIGN.md). Values of different value
/// families never compare equal.
OngoingBoolean OngoingValueEqual(const Value& v1, const Value& v2);

}  // namespace ongoingdb
