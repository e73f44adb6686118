// An index access method for ongoing time intervals — the paper's third
// future-work item (Sec. X). The index stores, per tuple, conservative
// bounds of one ongoing interval attribute:
//
//   min_start = start.a  (the earliest the interval can ever start)
//   max_end   = end.b    (the latest it can ever end)
//
// For a fixed probe interval [ts, te), any tuple whose ongoing interval
// can overlap/precede/follow/meet the probe at *some* reference time must
// satisfy simple bound conditions (e.g. overlap requires min_start < te
// and ts < max_end). The index answers these with binary searches over
// sorted bound lists and returns a candidate set; the exact ongoing
// predicate is then evaluated only on the candidates.
//
// The execution engine uses it for index-nested-loop joins: an eligible
// temporal join conjunct lowers to an IndexJoinOp (query/physical.h)
// that probes the inner side's index once per outer tuple and applies
// the exact join predicate as a residual. The view maintainer keeps an
// index of its own over a cached join inner (query/view_maintenance.h).
// Selections scan instead (see docs/DESIGN.md, "Index access path").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/interval_bounds.h"
#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {

/// A sorted-bounds index over one ongoing/fixed interval attribute.
class IntervalIndex {
 public:
  /// Builds the index over `column` of `r` (borrowed; the relation must
  /// outlive the index). The resolved column ordinal is stored so later
  /// selections evaluate exactly the indexed column — never a guess from
  /// the schema (a bitemporal relation has several interval attributes).
  static Result<IntervalIndex> Build(const OngoingRelation& r,
                                     const std::string& column);

  /// The probe dispatch: appends to *out (cleared first) the indices of
  /// every tuple that could satisfy `op` against a probe interval with
  /// the given conservative bounds at *some* reference time — a superset
  /// of the exact answer for every probe instantiation inside `probe`'s
  /// bounds. The destination is reused across calls (the zero-allocation
  /// contract the index-nested-loop join's per-outer-tuple probing
  /// relies on): steady state performs no heap allocation once *out has
  /// grown to the largest candidate set.
  void CandidatesInto(IntervalProbeOp op, const IntervalBounds& probe,
                      std::vector<size_t>* out) const;

  size_t size() const { return entries_.size(); }

  /// The ordinal of the indexed column, resolved at Build time.
  size_t column_index() const { return column_index_; }

  /// Order-sensitive fingerprint of the indexed column's endpoint bounds
  /// as of Build time. Recompute with ColumnFingerprint to detect base
  /// data changes (tuples appended, removed, or interval values
  /// modified) that make the index stale.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Fingerprint of `column`'s current endpoint bounds on `r` (position-
  /// seeded, so shifted or reordered tuples with different bounds
  /// change it). Fails when the column is not an interval attribute.
  static Result<uint64_t> ColumnFingerprint(const OngoingRelation& r,
                                            size_t column_index);

  // --- incremental maintenance (view delta-apply) -------------------------
  // The sequential fingerprint chain cannot be patched in place, so any
  // in-place delta leaves fingerprint() describing a state the index no
  // longer matches; fingerprint_current() reports that. Consumers that
  // gate on the fingerprint (the executor's shared index states) never
  // apply deltas; the view maintainer owns its indexes and tracks
  // staleness itself, rebuilding via Build once the applied-delta
  // fraction passes its threshold.

  /// Sentinel for ApplyRemove: no tuple was relocated by the removal.
  static constexpr size_t kNoMove = static_cast<size_t>(-1);

  /// Indexes `tuple`, which the underlying relation now holds at
  /// `tuple_index`. O(n) worst case (ordered insertion into both bound
  /// orders), O(log n) search. Fails when the tuple is too narrow for
  /// the indexed column; the index is unchanged on failure.
  Status ApplyInsert(const Tuple& tuple, size_t tuple_index);

  /// Drops the entry for `tuple_index`. When the relation removed the
  /// tuple by swap-remove, pass the index the relocated tuple moved
  /// *from* (its old last position) as `moved_from` and its entry is
  /// relabeled to `tuple_index`; pass kNoMove otherwise. Fails (index
  /// unchanged) when either entry is missing.
  Status ApplyRemove(size_t tuple_index, size_t moved_from);

  /// True until the first in-place delta; false afterwards, meaning
  /// fingerprint() describes the original Build state, not the current
  /// entries.
  bool fingerprint_current() const { return fingerprint_current_; }

 private:
  struct Entry {
    TimePoint min_start;  // earliest possible start
    TimePoint max_start;  // latest possible start
    TimePoint min_end;    // earliest possible end
    TimePoint max_end;    // latest possible end
    size_t tuple_index;
  };

  IntervalIndex() = default;

  // Entries sorted by min_start; by_min_start_[k] holds the k-th
  // smallest.
  std::vector<Entry> entries_;
  // Secondary order for the suffix probes (kAfter): positions into
  // entries_, sorted ascending by max_start. Entries whose start can
  // reach past a probe's end form a binary-searched suffix here.
  std::vector<uint32_t> by_max_start_;
  size_t column_index_ = 0;
  uint64_t fingerprint_ = 0;
  bool fingerprint_current_ = true;
};

}  // namespace ongoingdb
