#include "storage/stats.h"

#include <algorithm>

#include "storage/serializer.h"

namespace ongoingdb {

StorageStats ComputeStorageStats(const OngoingRelation& r) {
  StorageStats stats;
  stats.tuple_count = r.size();
  for (const Tuple& t : r.tuples()) {
    stats.total_bytes += SerializedTupleSize(t);
    stats.rt_bytes += SerializedRtSize(t.rt());
    stats.max_rt_cardinality = std::max(
        stats.max_rt_cardinality, static_cast<double>(t.rt().IntervalCount()));
    // Fixed baseline: instantiated value widths, no RT attribute.
    size_t fixed = 4;
    for (const Value& v : t.values()) {
      fixed += 1 + v.Instantiate(0).ByteWidth();
    }
    stats.fixed_total_bytes += fixed;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Interval histograms
// ---------------------------------------------------------------------------

double EquiDepthHistogram::FractionAtMost(TimePoint v) const {
  if (empty()) return 0.0;
  if (v < fences.front()) return 0.0;
  if (v >= fences.back()) return 1.0;
  // i = index of the last fence <= v; bucket i spans [fences[i],
  // fences[i+1]] and holds 1/B of the mass.
  const size_t i = static_cast<size_t>(
      std::upper_bound(fences.begin(), fences.end(), v) - fences.begin() - 1);
  const size_t buckets = fences.size() - 1;
  const double width = static_cast<double>(fences[i + 1] - fences[i]);
  // width > 0 here: fences[i + 1] > v >= fences[i].
  const double partial = static_cast<double>(v - fences[i]) / width;
  return (static_cast<double>(i) + partial) / static_cast<double>(buckets);
}

EquiDepthHistogram BuildEquiDepthHistogram(std::vector<TimePoint> samples,
                                           size_t buckets) {
  EquiDepthHistogram h;
  h.sample_count = samples.size();
  if (samples.empty() || buckets == 0) return h;
  std::sort(samples.begin(), samples.end());
  buckets = std::min(buckets, samples.size());
  h.fences.reserve(buckets + 1);
  for (size_t b = 0; b <= buckets; ++b) {
    // The b-th equi-depth quantile; the last fence is the max sample.
    const size_t pos =
        b == buckets ? samples.size() - 1 : b * samples.size() / buckets;
    h.fences.push_back(samples[pos]);
  }
  return h;
}

namespace {

inline double Clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

}  // namespace

double IntervalColumnStats::EstimateProbeSelectivity(
    IntervalProbeOp op, const IntervalBounds& probe) const {
  if (tuple_count == 0) return 0.0;
  switch (op) {
    case IntervalProbeOp::kOverlaps:
      // Candidate iff min_start < P.max_end AND max_end > P.min_start.
      // The two failure events (min_start >= P.max_end, max_end <=
      // P.min_start) are disjoint for a non-degenerate probe, so the
      // estimate is a plain difference of marginals.
      return Clamp01(min_start.FractionBelow(probe.max_end) -
                     max_end.FractionAtMost(probe.min_start));
    case IntervalProbeOp::kBefore:
      return Clamp01(min_end.FractionAtMost(probe.max_start));
    case IntervalProbeOp::kAfter:
      return Clamp01(1.0 - max_start.FractionBelow(probe.min_end));
    case IntervalProbeOp::kMeets:
      // min_end <= P.max_start AND max_end >= P.min_start; the joint
      // subtracts the nested failure (max_end < P.min_start implies
      // min_end < P.min_start <= P.max_start).
      return Clamp01(min_end.FractionAtMost(probe.max_start) -
                     max_end.FractionBelow(probe.min_start));
    case IntervalProbeOp::kMetBy:
      return Clamp01(min_start.FractionAtMost(probe.max_end) -
                     max_start.FractionBelow(probe.min_end));
  }
  return 1.0;
}

double IntervalColumnStats::EstimateSweepFraction(
    IntervalProbeOp op, const IntervalBounds& probe) const {
  if (tuple_count == 0) return 0.0;
  // Mirrors the stop bounds of IntervalIndex::CandidatesInto: every op
  // but kAfter walks the min_start-sorted prefix up to its bound;
  // kAfter walks the max_start-sorted suffix.
  switch (op) {
    case IntervalProbeOp::kOverlaps:
      return min_start.FractionBelow(probe.max_end);
    case IntervalProbeOp::kBefore:
    case IntervalProbeOp::kMeets:
      return min_start.FractionAtMost(probe.max_start);
    case IntervalProbeOp::kMetBy:
      return min_start.FractionAtMost(probe.max_end);
    case IntervalProbeOp::kAfter:
      return Clamp01(1.0 - max_start.FractionBelow(probe.min_end));
  }
  return 1.0;
}

Result<IntervalColumnStats> ComputeIntervalColumnStats(
    const OngoingRelation& r, size_t column_index, size_t buckets,
    size_t max_sample) {
  if (column_index >= r.schema().num_attributes()) {
    return Status::InvalidArgument("interval column ordinal out of range");
  }
  const ValueType type = r.schema().attribute(column_index).type;
  if (type != ValueType::kOngoingInterval &&
      type != ValueType::kFixedInterval) {
    return Status::TypeError(
        "interval histograms require an interval attribute");
  }
  IntervalColumnStats stats;
  stats.tuple_count = r.size();
  if (r.size() == 0) return stats;
  max_sample = std::max<size_t>(max_sample, 1);
  // Deterministic stride sampling: every ceil(n / max_sample)-th tuple.
  const size_t stride = (r.size() + max_sample - 1) / max_sample;
  std::vector<TimePoint> min_starts, max_starts, min_ends, max_ends,
      durations;
  const size_t expect = r.size() / stride + 1;
  min_starts.reserve(expect);
  max_starts.reserve(expect);
  min_ends.reserve(expect);
  max_ends.reserve(expect);
  durations.reserve(expect);
  for (size_t i = 0; i < r.size(); i += stride) {
    const IntervalBounds b =
        IntervalBoundsOfValue(r.tuple(i).value(column_index));
    min_starts.push_back(b.min_start);
    max_starts.push_back(b.max_start);
    min_ends.push_back(b.min_end);
    max_ends.push_back(b.max_end);
    durations.push_back(b.max_end - b.min_start);
  }
  stats.min_start = BuildEquiDepthHistogram(std::move(min_starts), buckets);
  stats.max_start = BuildEquiDepthHistogram(std::move(max_starts), buckets);
  stats.min_end = BuildEquiDepthHistogram(std::move(min_ends), buckets);
  stats.max_end = BuildEquiDepthHistogram(std::move(max_ends), buckets);
  stats.duration = BuildEquiDepthHistogram(std::move(durations), buckets);
  return stats;
}

}  // namespace ongoingdb
