#include "storage/serializer.h"

#include <cstring>

namespace ongoingdb {

namespace {

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(u >> (8 * i)));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  PutI64(out, static_cast<int64_t>(u));
}

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  Result<uint8_t> U8() {
    if (pos_ + 1 > bytes_.size()) return Fail();
    return bytes_[pos_++];
  }

  Result<uint32_t> U32() {
    if (pos_ + 4 > bytes_.size()) return Fail();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }

  Result<int64_t> I64() {
    if (pos_ + 8 > bytes_.size()) return Fail();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes_[pos_++]) << (8 * i);
    return static_cast<int64_t>(v);
  }

  Result<double> F64() {
    ONGOINGDB_ASSIGN_OR_RETURN(int64_t bits, I64());
    double v;
    uint64_t u = static_cast<uint64_t>(bits);
    std::memcpy(&v, &u, sizeof(v));
    return v;
  }

  Result<std::string> Str() {
    ONGOINGDB_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (pos_ + len > bytes_.size()) return Fail();
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status Fail() const { return Status::IOError("truncated tuple buffer"); }

  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

void SerializeValue(std::vector<uint8_t>* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutI64(out, v.AsInt64());
      break;
    case ValueType::kDouble:
      PutF64(out, v.AsDouble());
      break;
    case ValueType::kString: {
      const std::string& s = v.AsString();
      PutU32(out, static_cast<uint32_t>(s.size()));
      out->insert(out->end(), s.begin(), s.end());
      break;
    }
    case ValueType::kBool:
      PutU8(out, v.AsBool() ? 1 : 0);
      break;
    case ValueType::kTimePoint:
      PutI64(out, v.AsTime());
      break;
    case ValueType::kFixedInterval:
      PutI64(out, v.AsInterval().start);
      PutI64(out, v.AsInterval().end);
      break;
    case ValueType::kOngoingTimePoint:
      // Two fixed time points: the paper's size doubling.
      PutI64(out, v.AsOngoingPoint().a());
      PutI64(out, v.AsOngoingPoint().b());
      break;
    case ValueType::kOngoingInterval: {
      const OngoingInterval& iv = v.AsOngoingInterval();
      PutI64(out, iv.start().a());
      PutI64(out, iv.start().b());
      PutI64(out, iv.end().a());
      PutI64(out, iv.end().b());
      break;
    }
  }
}

Result<Value> DeserializeValue(Reader* reader, ValueType expected) {
  ONGOINGDB_ASSIGN_OR_RETURN(uint8_t tag, reader->U8());
  ValueType type = static_cast<ValueType>(tag);
  if (type != expected && type != ValueType::kNull) {
    return Status::TypeError("tuple buffer type mismatch");
  }
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t v, reader->I64());
      return Value::Int64(v);
    }
    case ValueType::kDouble: {
      ONGOINGDB_ASSIGN_OR_RETURN(double v, reader->F64());
      return Value::Double(v);
    }
    case ValueType::kString: {
      ONGOINGDB_ASSIGN_OR_RETURN(std::string v, reader->Str());
      return Value::String(std::move(v));
    }
    case ValueType::kBool: {
      ONGOINGDB_ASSIGN_OR_RETURN(uint8_t v, reader->U8());
      return Value::Bool(v != 0);
    }
    case ValueType::kTimePoint: {
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t v, reader->I64());
      return Value::Time(v);
    }
    case ValueType::kFixedInterval: {
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t s, reader->I64());
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t e, reader->I64());
      return Value::Interval(FixedInterval{s, e});
    }
    case ValueType::kOngoingTimePoint: {
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t a, reader->I64());
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t b, reader->I64());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingTimePoint p,
                                 OngoingTimePoint::Make(a, b));
      return Value::Ongoing(p);
    }
    case ValueType::kOngoingInterval: {
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t sa, reader->I64());
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t sb, reader->I64());
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t ea, reader->I64());
      ONGOINGDB_ASSIGN_OR_RETURN(int64_t eb, reader->I64());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingTimePoint s,
                                 OngoingTimePoint::Make(sa, sb));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingTimePoint e,
                                 OngoingTimePoint::Make(ea, eb));
      return Value::Ongoing(OngoingInterval(s, e));
    }
  }
  return Status::TypeError("unknown value tag");
}

}  // namespace

std::vector<uint8_t> SerializeTuple(const Tuple& tuple) {
  std::vector<uint8_t> out;
  out.reserve(SerializedTupleSize(tuple));
  PutU32(&out, static_cast<uint32_t>(tuple.num_values()));
  for (const Value& v : tuple.values()) SerializeValue(&out, v);
  // RT: varlena array of fixed intervals.
  const auto& intervals = tuple.rt().intervals();
  PutU32(&out, static_cast<uint32_t>(intervals.size()));
  for (const FixedInterval& iv : intervals) {
    PutI64(&out, iv.start);
    PutI64(&out, iv.end);
  }
  return out;
}

Result<Tuple> DeserializeTuple(const Schema& schema,
                               const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  ONGOINGDB_ASSIGN_OR_RETURN(uint32_t n, reader.U32());
  if (n != schema.num_attributes()) {
    return Status::SchemaMismatch("tuple buffer arity mismatch");
  }
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ONGOINGDB_ASSIGN_OR_RETURN(
        Value v, DeserializeValue(&reader, schema.attribute(i).type));
    values.push_back(std::move(v));
  }
  ONGOINGDB_ASSIGN_OR_RETURN(uint32_t rt_count, reader.U32());
  std::vector<FixedInterval> intervals;
  intervals.reserve(rt_count);
  for (uint32_t i = 0; i < rt_count; ++i) {
    ONGOINGDB_ASSIGN_OR_RETURN(int64_t s, reader.I64());
    ONGOINGDB_ASSIGN_OR_RETURN(int64_t e, reader.I64());
    intervals.push_back(FixedInterval{s, e});
  }
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes after tuple");
  }
  return Tuple(std::move(values),
               IntervalSet::FromNormalized(intervals.data(), intervals.size()));
}

size_t SerializedTupleSize(const Tuple& tuple) {
  size_t size = 4;  // value count
  for (const Value& v : tuple.values()) {
    size += 1 + v.ByteWidth();  // tag + payload (ByteWidth includes varlena
                                // headers for strings)
  }
  size += SerializedRtSize(tuple.rt());
  return size;
}

size_t SerializedRtSize(const IntervalSet& rt) {
  // 4-byte varlena count header plus 16 bytes per interval. With the
  // typical cardinality of one this is 20 bytes plus the tuple's array
  // pointer overhead — the same order as the 29 bytes the paper reports
  // for PostgreSQL.
  return 4 + 16 * rt.IntervalCount();
}

}  // namespace ongoingdb
