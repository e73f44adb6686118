// Conservative endpoint bounds of an interval, and the probe operator
// vocabulary of the interval index. An ongoing interval [ts, te)
// with endpoints ts = a1+b1, te = a2+b2 instantiates, at every reference
// time, to a fixed interval whose start lies in [a1, b1] and whose end
// lies in [a2, b2] — IntervalBounds captures exactly those four numbers.
// Fixed intervals collapse to min == max per endpoint. Both the
// IntervalIndex candidate sweeps (query/interval_index.h) and the
// histogram-based selectivity estimates (storage/stats.h) are stated
// over these bounds, so the two can never disagree about what a
// "candidate" is.
#pragma once

#include "core/ongoing_interval.h"
#include "core/time.h"

namespace ongoingdb {

/// Conservative endpoint bounds of one (possibly ongoing) interval.
struct IntervalBounds {
  TimePoint min_start = 0;  ///< earliest possible start (start.a)
  TimePoint max_start = 0;  ///< latest possible start (start.b)
  TimePoint min_end = 0;    ///< earliest possible end (end.a)
  TimePoint max_end = 0;    ///< latest possible end (end.b)

  static IntervalBounds Of(const OngoingInterval& iv) {
    return {iv.start().a(), iv.start().b(), iv.end().a(), iv.end().b()};
  }

  static IntervalBounds Of(const FixedInterval& f) {
    return {f.start, f.start, f.end, f.end};
  }

  bool operator==(const IntervalBounds&) const = default;
};

/// The probe operators the interval index answers, phrased from the
/// *indexed/estimated* interval's perspective against a probe P:
///
///   kOverlaps  — indexed overlaps P (symmetric)
///   kBefore    — indexed before P (indexed ends no later than P starts)
///   kAfter     — P before indexed (indexed starts no earlier than P ends)
///   kMeets     — indexed meets P (indexed end == P start)
///   kMetBy     — P meets indexed (indexed start == P end)
///
/// Index-nested-loop joins map their `outer.col op inner.col` conjunct
/// onto these and probe with each outer tuple's IntervalBounds
/// (query/optimizer.h, MatchIndexJoin).
enum class IntervalProbeOp {
  kOverlaps,
  kBefore,
  kAfter,
  kMeets,
  kMetBy,
};

inline const char* IntervalProbeOpName(IntervalProbeOp op) {
  switch (op) {
    case IntervalProbeOp::kOverlaps: return "overlaps";
    case IntervalProbeOp::kBefore: return "before";
    case IntervalProbeOp::kAfter: return "after";
    case IntervalProbeOp::kMeets: return "meets";
    case IntervalProbeOp::kMetBy: return "met-by";
  }
  return "?";
}

}  // namespace ongoingdb
