#include "baselines/clifford.h"

namespace ongoingdb {

TimePoint CliffMaxReferenceTime(const OngoingRelation& r) {
  TimePoint latest = 0;
  auto consider = [&latest](TimePoint t) {
    if (IsFinite(t) && t > latest) latest = t;
  };
  for (const Tuple& t : r.tuples()) {
    for (const Value& v : t.values()) {
      switch (v.type()) {
        case ValueType::kTimePoint:
          consider(v.AsTime());
          break;
        case ValueType::kFixedInterval:
          consider(v.AsInterval().start);
          consider(v.AsInterval().end);
          break;
        case ValueType::kOngoingTimePoint:
          consider(v.AsOngoingPoint().a());
          consider(v.AsOngoingPoint().b());
          break;
        case ValueType::kOngoingInterval:
          consider(v.AsOngoingInterval().start().a());
          consider(v.AsOngoingInterval().start().b());
          consider(v.AsOngoingInterval().end().a());
          consider(v.AsOngoingInterval().end().b());
          break;
        default:
          break;
      }
    }
  }
  return latest + 1;
}

OngoingRelation StripOngoing(const OngoingRelation& r, TimePoint rt) {
  OngoingRelation result(r.schema().Instantiated());
  result.Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    result.AppendUnchecked(Tuple(t.InstantiateValues(rt)));
  }
  return result;
}

}  // namespace ongoingdb
