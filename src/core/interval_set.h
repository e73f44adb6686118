// IntervalSet: a finite set of fixed time points represented as a list of
// maximal, non-overlapping, ascending half-open intervals. This is the
// representation the paper uses both for the set St of an ongoing boolean
// b[St, Sf] and for the value of a tuple's reference-time attribute RT
// (Sec. VIII, "Reference Time RT" / "Ongoing Booleans").
//
// The logical connectives are implemented with single-pass sweep-line
// algorithms (Algorithm 1 of the paper): no sorting is ever required, each
// input interval is processed at most once, and results are again maximal,
// non-overlapping, and ascending.
//
// Storage is an InlineVector sized for the paper's workloads: Table IV
// shows that reference-time sets almost always hold one or two intervals.
// The inline capacity is 3 — the worst case of the sweep-line
// intersection on two such sets (an intersection of m- and n-interval
// sets yields at most m+n-1 intervals) — so intersecting typical RT sets
// never allocates, not even in the worst case. The *Into variants
// let per-tuple hot paths (join emission, predicate evaluation) reuse one
// destination set across calls instead of constructing a fresh result.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "core/time.h"
#include "util/inline_vector.h"
#include "util/result.h"

namespace ongoingdb {

/// A set of fixed time points stored as sorted, disjoint, maximal
/// half-open intervals.
class IntervalSet {
 public:
  /// The interval list representation. Inline capacity 3 covers the
  /// 1-2 interval sets that dominate real reference times (Table IV)
  /// plus the worst-case intersection of two of them (m + n - 1 = 3).
  using Intervals = InlineVector<FixedInterval, 3>;

  /// Constructs the empty set.
  IntervalSet() = default;

  /// Convenience literal constructor; intervals may be given in any order
  /// and are normalized.
  IntervalSet(std::initializer_list<FixedInterval> intervals);

  /// The set containing every time point: {(-inf, +inf)}. This is the
  /// trivial reference time of base tuples and the St of boolean `true`.
  static IntervalSet All();

  /// The empty set; the St of boolean `false`.
  static IntervalSet Empty();

  /// The singleton set {t} = {[t, t+1)}.
  static IntervalSet Point(TimePoint t);

  /// Normalizes arbitrary (possibly overlapping, unsorted, empty)
  /// intervals: drops empties, sorts, merges overlapping and adjacent.
  static IntervalSet FromUnsorted(std::vector<FixedInterval> intervals);

  /// Copies `count` intervals that must already be non-empty, sorted,
  /// disjoint and maximal (adjacent intervals merged). Checked with
  /// assertions in debug builds; use FromUnsorted for arbitrary input.
  /// Up to the inline capacity this never allocates; the ongoing
  /// predicates (core/operations.cc) build their results from stack
  /// arrays with it.
  static IntervalSet FromNormalized(const FixedInterval* intervals,
                                    size_t count);

  /// True iff `intervals` satisfies the class invariant: every interval
  /// is non-empty, lies within the time domain [-inf, +inf], and the list
  /// is ascending, disjoint and maximal (a gap of at least one point
  /// between consecutive intervals). Endpoints beyond the infinity
  /// sentinels are invariant violations even when start < end.
  static bool IsNormalized(const FixedInterval* intervals, size_t count);

  /// True iff the set contains no time points.
  bool IsEmpty() const { return intervals_.empty(); }

  /// Empties the set in place, keeping its buffer.
  void Clear() { intervals_.clear(); }

  /// True iff the set contains every time point of T.
  bool IsAll() const;

  /// True iff time point `t` is a member.
  bool Contains(TimePoint t) const;

  /// The number of intervals in the representation (the paper's
  /// "cardinality of RT", Table IV).
  size_t IntervalCount() const { return intervals_.size(); }

  /// The intervals in ascending order.
  const Intervals& intervals() const { return intervals_; }

  /// Smallest member. Must not be called on an empty set.
  TimePoint Min() const { return intervals_.front().start; }

  /// One past the largest member. Must not be called on an empty set.
  TimePoint MaxExclusive() const { return intervals_.back().end; }

  /// Set intersection via sweep-line (Algorithm 1 of the paper): the
  /// logical conjunction of ongoing booleans and the restriction of a
  /// tuple's RT by a predicate.
  IntervalSet Intersect(const IntervalSet& other) const;

  /// Set union via sweep-line: the logical disjunction.
  IntervalSet Union(const IntervalSet& other) const;

  /// Complement with respect to (-inf, +inf): the logical negation.
  IntervalSet Complement() const;

  /// Set difference this \ other via a direct sweep (no intermediate
  /// complement set is materialized).
  IntervalSet Difference(const IntervalSet& other) const;

  /// Destination-passing variants of the sweeps: write the result into
  /// `*out`, reusing its (possibly spilled) capacity. `out` must not
  /// alias either operand. Used by per-tuple hot paths that would
  /// otherwise construct a fresh set per pair.
  void IntersectInto(const IntervalSet& other, IntervalSet* out) const;
  void UnionInto(const IntervalSet& other, IntervalSet* out) const;
  void DifferenceInto(const IntervalSet& other, IntervalSet* out) const;

  /// True iff the two sets share at least one time point. Equivalent to
  /// !Intersect(other).IsEmpty() but allocation-free.
  bool Intersects(const IntervalSet& other) const;

  /// Number of time points in the set; kMaxInfinity if unbounded.
  int64_t CountPoints() const;

  bool operator==(const IntervalSet& other) const = default;

  /// Renders "{[a, b), [c, d)}" with FormatTimePoint endpoints; "{}" when
  /// empty.
  std::string ToString() const;

 private:
  Intervals intervals_;
};

}  // namespace ongoingdb
