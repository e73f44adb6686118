#include "relation/value.h"

#include <cmath>
#include <functional>
#include <string_view>

#include "core/operations.h"

namespace ongoingdb {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kBool:
      return "bool";
    case ValueType::kTimePoint:
      return "timepoint";
    case ValueType::kFixedInterval:
      return "interval";
    case ValueType::kOngoingTimePoint:
      return "ongoing_timepoint";
    case ValueType::kOngoingInterval:
      return "ongoing_interval";
  }
  return "unknown";
}

ValueType InstantiatedType(ValueType type) {
  switch (type) {
    case ValueType::kOngoingTimePoint:
      return ValueType::kTimePoint;
    case ValueType::kOngoingInterval:
      return ValueType::kFixedInterval;
    default:
      return type;
  }
}

Value Value::Int64(int64_t v) {
  Value x;
  x.type_ = ValueType::kInt64;
  x.data_ = v;
  return x;
}

Value Value::Double(double v) {
  Value x;
  x.type_ = ValueType::kDouble;
  x.data_ = v;
  return x;
}

Value Value::String(std::string v) {
  Value x;
  x.type_ = ValueType::kString;
  x.data_ = std::make_shared<const std::string>(std::move(v));
  return x;
}

Value Value::Bool(bool v) {
  Value x;
  x.type_ = ValueType::kBool;
  x.data_ = v;
  return x;
}

Value Value::Time(TimePoint v) {
  Value x;
  x.type_ = ValueType::kTimePoint;
  x.data_ = static_cast<int64_t>(v);
  return x;
}

Value Value::Interval(FixedInterval v) {
  Value x;
  x.type_ = ValueType::kFixedInterval;
  x.data_ = v;
  return x;
}

Value Value::Ongoing(OngoingTimePoint v) {
  Value x;
  x.type_ = ValueType::kOngoingTimePoint;
  x.data_ = v;
  return x;
}

Value Value::Ongoing(OngoingInterval v) {
  Value x;
  x.type_ = ValueType::kOngoingInterval;
  x.data_ = v;
  return x;
}

Value Value::Instantiate(TimePoint rt) const {
  switch (type_) {
    case ValueType::kOngoingTimePoint:
      return Value::Time(AsOngoingPoint().Instantiate(rt));
    case ValueType::kOngoingInterval:
      return Value::Interval(AsOngoingInterval().Instantiate(rt));
    default:
      return *this;
  }
}

size_t Value::ByteWidth() const {
  switch (type_) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kDouble:
    case ValueType::kTimePoint:
      return 8;
    case ValueType::kBool:
      return 1;
    case ValueType::kString:
      // varlena-style: 4-byte length header plus payload.
      return 4 + AsString().size();
    case ValueType::kFixedInterval:
      return 16;
    case ValueType::kOngoingTimePoint:
      return 16;  // two fixed time points (the paper's doubling)
    case ValueType::kOngoingInterval:
      return 32;  // two ongoing time points
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble:
      return std::to_string(AsDouble());
    case ValueType::kString:
      return AsString();
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kTimePoint:
      return FormatTimePoint(AsTime());
    case ValueType::kFixedInterval:
      return FormatFixedInterval(AsInterval());
    case ValueType::kOngoingTimePoint:
      return AsOngoingPoint().ToString();
    case ValueType::kOngoingInterval:
      return AsOngoingInterval().ToString();
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  // The shared string payload makes the variant's default comparison a
  // pointer identity check; strings must compare by content.
  if (type_ == ValueType::kString) return AsString() == other.AsString();
  return data_ == other.data_;
}

namespace {

inline size_t HashInt(int64_t v) {
  return std::hash<int64_t>{}(v);
}

template <typename T>
int ThreeWay(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

int ComparePoints(const OngoingTimePoint& a, const OngoingTimePoint& b) {
  if (int c = ThreeWay(a.a(), b.a()); c != 0) return c;
  return ThreeWay(a.b(), b.b());
}

}  // namespace

size_t ValueHash::operator()(const Value& v) const {
  size_t h = HashInt(static_cast<int64_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      return h;
    case ValueType::kInt64:
      return HashCombine(h, HashInt(v.AsInt64()));
    case ValueType::kDouble: {
      // All NaN bit patterns compare equal under ValueCompare, so they
      // must share one hash (unordered-container contract).
      const double d = v.AsDouble();
      if (std::isnan(d)) return HashCombine(h, 0x7ff8dead);
      return HashCombine(h, std::hash<double>{}(d));
    }
    case ValueType::kString:
      return HashCombine(h, std::hash<std::string_view>{}(v.AsString()));
    case ValueType::kBool:
      return HashCombine(h, v.AsBool() ? 0x9ae16a3b : 0xc2b2ae35);
    case ValueType::kTimePoint:
      return HashCombine(h, HashInt(v.AsTime()));
    case ValueType::kFixedInterval: {
      FixedInterval f = v.AsInterval();
      return HashCombine(HashCombine(h, HashInt(f.start)), HashInt(f.end));
    }
    case ValueType::kOngoingTimePoint: {
      const OngoingTimePoint& p = v.AsOngoingPoint();
      return HashCombine(HashCombine(h, HashInt(p.a())), HashInt(p.b()));
    }
    case ValueType::kOngoingInterval: {
      const OngoingInterval& iv = v.AsOngoingInterval();
      h = HashCombine(h, HashInt(iv.start().a()));
      h = HashCombine(h, HashInt(iv.start().b()));
      h = HashCombine(h, HashInt(iv.end().a()));
      return HashCombine(h, HashInt(iv.end().b()));
    }
  }
  return h;
}

int ValueCompare(const Value& a, const Value& b) {
  if (int c = ThreeWay(static_cast<int>(a.type()), static_cast<int>(b.type()));
      c != 0) {
    return c;
  }
  switch (a.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
      return ThreeWay(a.AsInt64(), b.AsInt64());
    case ValueType::kDouble:
      return CompareDoubles(a.AsDouble(), b.AsDouble());
    case ValueType::kString: {
      int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kBool:
      return ThreeWay(a.AsBool(), b.AsBool());
    case ValueType::kTimePoint:
      return ThreeWay(a.AsTime(), b.AsTime());
    case ValueType::kFixedInterval: {
      FixedInterval x = a.AsInterval(), y = b.AsInterval();
      if (int c = ThreeWay(x.start, y.start); c != 0) return c;
      return ThreeWay(x.end, y.end);
    }
    case ValueType::kOngoingTimePoint:
      return ComparePoints(a.AsOngoingPoint(), b.AsOngoingPoint());
    case ValueType::kOngoingInterval: {
      const OngoingInterval& x = a.AsOngoingInterval();
      const OngoingInterval& y = b.AsOngoingInterval();
      if (int c = ComparePoints(x.start(), y.start()); c != 0) return c;
      return ComparePoints(x.end(), y.end());
    }
  }
  return 0;
}

OngoingBoolean OngoingValueEqual(const Value& v1, const Value& v2) {
  // Lift fixed values into their ongoing generalizations where needed so
  // that mixed fixed/ongoing comparisons (e.g. a timepoint column against
  // an ongoing timepoint column) instantiate correctly.
  const ValueType t1 = v1.type(), t2 = v2.type();
  auto as_point = [](const Value& v) {
    return v.type() == ValueType::kTimePoint
               ? OngoingTimePoint::Fixed(v.AsTime())
               : v.AsOngoingPoint();
  };
  auto as_interval = [](const Value& v) {
    if (v.type() == ValueType::kFixedInterval) {
      FixedInterval f = v.AsInterval();
      return OngoingInterval::Fixed(f.start, f.end);
    }
    return v.AsOngoingInterval();
  };
  const bool points1 =
      t1 == ValueType::kTimePoint || t1 == ValueType::kOngoingTimePoint;
  const bool points2 =
      t2 == ValueType::kTimePoint || t2 == ValueType::kOngoingTimePoint;
  if (points1 && points2) {
    return Equal(as_point(v1), as_point(v2));
  }
  const bool ivs1 =
      t1 == ValueType::kFixedInterval || t1 == ValueType::kOngoingInterval;
  const bool ivs2 =
      t2 == ValueType::kFixedInterval || t2 == ValueType::kOngoingInterval;
  if (ivs1 && ivs2) {
    OngoingInterval a = as_interval(v1), b = as_interval(v2);
    return Equal(a.start(), b.start()).And(Equal(a.end(), b.end()));
  }
  // Fixed value families: constant equality.
  return OngoingBoolean::FromBool(v1 == v2);
}

}  // namespace ongoingdb
