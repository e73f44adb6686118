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
