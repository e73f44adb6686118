// Table statistics. Two families live here:
//
//  * Per-tuple storage accounting for the paper's Table V: average tuple
//    size, RT attribute share, and the ongoing/fixed size ratio.
//  * Per-column interval histograms — equi-depth distributions of an
//    interval attribute's conservative endpoint bounds (start/end) and
//    duration. The optimizer's cost-based join-algorithm gating
//    (query/optimizer.h, ResolveAutoJoinAlgorithm) estimates the
//    selectivity of an IntervalIndex probe from these, picking
//    index-nested-loop vs hash vs scan-nested-loop without executing
//    anything.
#pragma once

#include <vector>

#include "core/interval_bounds.h"
#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {

/// Aggregated storage statistics of one relation.
struct StorageStats {
  size_t tuple_count = 0;
  size_t total_bytes = 0;       ///< serialized bytes of all tuples
  size_t rt_bytes = 0;          ///< bytes of the RT attribute across tuples
  size_t fixed_total_bytes = 0; ///< bytes if every ongoing value were fixed
                                ///< and RT dropped (the paper's baseline)
  double max_rt_cardinality = 0;

  double AvgTupleBytes() const {
    return tuple_count == 0 ? 0.0
                            : static_cast<double>(total_bytes) / tuple_count;
  }
  double AvgRtBytes() const {
    return tuple_count == 0 ? 0.0
                            : static_cast<double>(rt_bytes) / tuple_count;
  }
  /// RT share of the tuple size (Table V's percentage column).
  double RtShare() const {
    return total_bytes == 0
               ? 0.0
               : static_cast<double>(rt_bytes) / total_bytes;
  }
  /// ongoing/fixed size ratio (Table V's bottom row).
  double OngoingOverFixed() const {
    return fixed_total_bytes == 0
               ? 0.0
               : static_cast<double>(total_bytes) / fixed_total_bytes;
  }
};

/// Computes storage statistics by serializing each tuple.
StorageStats ComputeStorageStats(const OngoingRelation& r);

// ---------------------------------------------------------------------------
// Interval histograms (cost-based join-algorithm gating)
// ---------------------------------------------------------------------------

/// An equi-depth histogram over int64 samples: `fences` holds buckets+1
/// quantile values (fences[0] = min sample, fences.back() = max sample),
/// each bucket covering an equal share of the samples. Cumulative
/// fractions interpolate linearly inside a bucket, so skewed
/// distributions cost resolution only where their mass is thin —
/// exactly what equi-depth buys over equi-width.
struct EquiDepthHistogram {
  std::vector<TimePoint> fences;
  size_t sample_count = 0;

  bool empty() const { return fences.size() < 2 || sample_count == 0; }

  /// Estimate of P(sample <= v) in [0, 1].
  double FractionAtMost(TimePoint v) const;

  /// Estimate of P(sample < v); the domain is discrete (int64 ticks).
  double FractionBelow(TimePoint v) const { return FractionAtMost(v - 1); }
};

/// Builds an equi-depth histogram over `samples` (copied and sorted).
EquiDepthHistogram BuildEquiDepthHistogram(std::vector<TimePoint> samples,
                                           size_t buckets);

/// The conservative IntervalBounds of an interval-typed value (ongoing
/// or fixed). The single conversion the histogram sampler, the cost
/// model's probe sampling, the index build and the index-join probing
/// all share — so the estimators and the execution path cannot disagree
/// about a probe's bounds. The value must be an interval, as for Value's
/// typed accessors: callers check the column's type, and a stored
/// relation holds no NULL (OngoingRelation::ValidateValues).
inline IntervalBounds IntervalBoundsOfValue(const Value& v) {
  if (v.type() == ValueType::kFixedInterval) {
    return IntervalBounds::Of(v.AsInterval());
  }
  return IntervalBounds::Of(v.AsOngoingInterval());
}

/// Equi-depth histograms of one interval column's conservative endpoint
/// bounds (core/interval_bounds.h) and durations. The selectivity
/// estimate below is stated over the same bound conditions the
/// IntervalIndex candidate sweeps use, so "estimated fraction" and
/// "fraction of candidates the index returns" converge as the histograms
/// get finer.
struct IntervalColumnStats {
  EquiDepthHistogram min_start;
  EquiDepthHistogram max_start;
  EquiDepthHistogram min_end;
  EquiDepthHistogram max_end;
  EquiDepthHistogram duration;  ///< max_end - min_start per tuple
  size_t tuple_count = 0;       ///< relation size the sample represents

  /// Estimated fraction of the column's tuples the IntervalIndex would
  /// return as candidates for `op` against `probe` — the probe
  /// selectivity the cost-based kAuto join gating keys on. Exact in the
  /// histogram limit for kOverlaps/kBefore (their candidate
  /// conditions decompose into disjoint marginal events); a slight
  /// overestimate for kAfter/kMeets/kMetBy (one secondary conjunct is
  /// dropped), which only ever biases the optimizer *away* from the
  /// index — the safe direction.
  double EstimateProbeSelectivity(IntervalProbeOp op,
                                  const IntervalBounds& probe) const;

  /// Estimated fraction of the column's tuples the index candidate
  /// sweep TOUCHES for `op` against `probe` — the prefix of the
  /// min_start order (suffix of the max_start order for kAfter) the
  /// sweep walks before its stop bound, of which only the selectivity
  /// fraction above survives the filter. The index's per-probe cost is
  /// proportional to this, not to the candidate count: a probe ending
  /// late sweeps almost the whole entry list even when nearly every
  /// entry fails the max_end filter, and the join cost model must
  /// charge for it.
  double EstimateSweepFraction(IntervalProbeOp op,
                               const IntervalBounds& probe) const;
};

/// Computes interval-column statistics for `column_index` of `r`. At
/// most `max_sample` tuples are examined (deterministic stride sampling
/// — no RNG, so repeated compiles of the same plan estimate
/// identically); `buckets` bounds the histogram resolution. Fails when
/// the column is not an interval attribute.
Result<IntervalColumnStats> ComputeIntervalColumnStats(
    const OngoingRelation& r, size_t column_index, size_t buckets = 32,
    size_t max_sample = 1024);

}  // namespace ongoingdb
