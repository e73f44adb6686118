#include "query/aggregate.h"

#include <algorithm>
#include <map>
#include <set>

namespace ongoingdb {

int64_t StepFunction::At(TimePoint rt) const {
  for (const Step& step : steps) {
    if (rt < step.range.end) return step.value;
  }
  return steps.empty() ? 0 : steps.back().value;
}

int64_t StepFunction::Max() const {
  int64_t best = 0;
  for (const Step& step : steps) best = std::max(best, step.value);
  return best;
}

std::string StepFunction::ToString() const {
  std::string s = "{";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) s += ", ";
    s += FormatFixedInterval(steps[i].range) + ": " +
         std::to_string(steps[i].value);
  }
  s += "}";
  return s;
}

namespace {

// Drops empty ranges and merges adjacent equal-valued steps
// (maximality).
StepFunction MergeSteps(std::vector<StepFunction::Step> steps) {
  StepFunction fn;
  for (auto& step : steps) {
    if (step.range.empty()) continue;
    if (!fn.steps.empty() && fn.steps.back().value == step.value) {
      fn.steps.back().range.end = step.range.end;
    } else {
      fn.steps.push_back(step);
    }
  }
  return fn;
}

// Turns the +1/-1 boundary deltas of the count sweep into maximal,
// gap-free steps.
StepFunction StepsFromDeltas(const std::map<TimePoint, int64_t>& deltas) {
  std::vector<StepFunction::Step> steps;
  TimePoint cursor = kMinInfinity;
  int64_t count = 0;
  for (const auto& [point, delta] : deltas) {
    if (delta == 0) continue;
    if (point > cursor) {
      steps.push_back({FixedInterval{cursor, point}, count});
      cursor = point;
    }
    count += delta;
  }
  if (cursor < kMaxInfinity) {
    steps.push_back({FixedInterval{cursor, kMaxInfinity}, count});
  }
  return MergeSteps(std::move(steps));
}

// One (RT interval, column value) pair — the event the MIN/MAX sweep
// reduces tuples to.
struct ValuedInterval {
  FixedInterval range;
  int64_t value = 0;
};

// Ordered sweep over (interval, value) events: between consecutive RT
// boundaries the aggregate is the min/max of the currently alive
// values (a multiset ordered by value), empty ranges take empty_value.
// O(n log n) in the number of events.
StepFunction SweepMinMax(const std::vector<ValuedInterval>& events,
                         bool take_min, int64_t empty_value) {
  struct Boundary {
    TimePoint at;
    bool add;
    int64_t value;
  };
  std::vector<Boundary> bounds;
  bounds.reserve(events.size() * 2);
  for (const ValuedInterval& e : events) {
    if (e.range.empty()) continue;
    bounds.push_back({e.range.start, true, e.value});
    bounds.push_back({e.range.end, false, e.value});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) { return a.at < b.at; });
  std::multiset<int64_t> active;
  std::vector<StepFunction::Step> steps;
  TimePoint prev = kMinInfinity;
  auto current = [&] {
    if (active.empty()) return empty_value;
    return take_min ? *active.begin() : *active.rbegin();
  };
  size_t i = 0;
  while (i < bounds.size()) {
    const TimePoint t = bounds[i].at;
    if (t > prev) {
      steps.push_back({FixedInterval{prev, t}, current()});
      prev = t;
    }
    for (; i < bounds.size() && bounds[i].at == t; ++i) {
      if (bounds[i].add) {
        active.insert(bounds[i].value);
      } else {
        active.erase(active.find(bounds[i].value));
      }
    }
  }
  if (prev < kMaxInfinity) {
    steps.push_back({FixedInterval{prev, kMaxInfinity}, current()});
  }
  if (steps.empty()) {
    steps.push_back({FixedInterval{kMinInfinity, kMaxInfinity}, empty_value});
  }
  return MergeSteps(std::move(steps));
}

Result<size_t> CheckInt64Column(const Schema& schema,
                                const std::string& column) {
  ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column));
  if (schema.attribute(idx).type != ValueType::kInt64) {
    return Status::TypeError("aggregate requires an int64 attribute, got " +
                             std::string(ValueTypeToString(
                                 schema.attribute(idx).type)));
  }
  return idx;
}

void AddRtDeltas(const IntervalSet& rt, int64_t weight,
                 std::map<TimePoint, int64_t>* deltas) {
  for (const FixedInterval& iv : rt.intervals()) {
    (*deltas)[iv.start] += weight;
    (*deltas)[iv.end] -= weight;
  }
}

}  // namespace

StepFunction CountAtEachReferenceTime(const OngoingRelation& r) {
  // Sweep over interval boundaries: +1 at each RT interval start, -1 at
  // each end.
  std::map<TimePoint, int64_t> deltas;
  for (const Tuple& t : r.tuples()) {
    AddRtDeltas(t.rt(), 1, &deltas);
  }
  return StepsFromDeltas(deltas);
}

namespace {

struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return ValueCompare(a, b) < 0;
  }
};

// Per-group boundary deltas; groups ordered by ValueCompare.
using GroupDeltas = std::map<Value, std::map<TimePoint, int64_t>, ValueLess>;

Status CheckGroupable(const Schema& schema, size_t idx) {
  if (IsOngoingType(schema.attribute(idx).type)) {
    return Status::NotImplemented(
        "grouping by ongoing attributes requires time-dependent groups");
  }
  return Status::OK();
}

std::vector<GroupedCount> GroupedCountsFromDeltas(GroupDeltas& groups) {
  std::vector<GroupedCount> result;
  result.reserve(groups.size());
  for (auto& [group, deltas] : groups) {
    result.push_back(GroupedCount{group, StepsFromDeltas(deltas)});
  }
  return result;
}

}  // namespace

Result<std::vector<GroupedCount>> CountGroupedBy(const OngoingRelation& r,
                                                 const std::string& column) {
  ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, r.schema().IndexOf(column));
  ONGOINGDB_RETURN_NOT_OK(CheckGroupable(r.schema(), idx));
  GroupDeltas groups;
  for (const Tuple& t : r.tuples()) {
    AddRtDeltas(t.rt(), 1, &groups[t.value(idx)]);
  }
  return GroupedCountsFromDeltas(groups);
}

Result<StepFunction> SumAtEachReferenceTime(const OngoingRelation& r,
                                            const std::string& column) {
  ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, CheckInt64Column(r.schema(), column));
  std::map<TimePoint, int64_t> deltas;
  for (const Tuple& t : r.tuples()) {
    AddRtDeltas(t.rt(), t.value(idx).AsInt64(), &deltas);
  }
  return StepsFromDeltas(deltas);
}

namespace {

Result<StepFunction> MinMaxOverRelation(const OngoingRelation& r,
                                        const std::string& column,
                                        bool take_min, int64_t empty_value) {
  ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, CheckInt64Column(r.schema(), column));
  std::vector<ValuedInterval> events;
  for (const Tuple& t : r.tuples()) {
    const int64_t v = t.value(idx).AsInt64();
    for (const FixedInterval& iv : t.rt().intervals()) {
      events.push_back({iv, v});
    }
  }
  return SweepMinMax(events, take_min, empty_value);
}

}  // namespace

Result<StepFunction> MinAtEachReferenceTime(const OngoingRelation& r,
                                            const std::string& column,
                                            int64_t empty_value) {
  return MinMaxOverRelation(r, column, /*take_min=*/true, empty_value);
}

Result<StepFunction> MaxAtEachReferenceTime(const OngoingRelation& r,
                                            const std::string& column,
                                            int64_t empty_value) {
  return MinMaxOverRelation(r, column, /*take_min=*/false, empty_value);
}

}  // namespace ongoingdb
