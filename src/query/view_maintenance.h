// Delta-driven maintenance of materialized ongoing views: instead of
// re-running the whole plan after every base modification (O(|base|)),
// the maintainer replays each base relation's ModificationLog
// (relation/relation.h) through per-operator delta rules and patches the
// cached view output in place — O(|delta|) work for small write batches.
//
// Deltas are signed tuple multisets: an insert is (+1, t), a removal is
// (-1, t); Torp's valid-time close decomposes into a removal of the open
// tuple plus an insert of the closed replacement. Each operator kind
// pushes deltas through with exactly the semantics of its full
// evaluation:
//
//   Scan     the log entries themselves.
//   Filter   per delta tuple: rt' = rt ^ theta(t); drop if empty.
//   Project  project the values; RT unchanged (Theorem 2).
//   Join     over the *pre-state* cached inputs L0, R0:
//            dV = dL |x| R0  +  L0 |x| dR  +  dL |x| dR
//            (signs multiply in the cross term). The dL |x| R0 term
//            probes a maintainer-owned IntervalIndex on the cached inner
//            when the plan's join conjunct is index-eligible
//            (MatchIndexJoin, query/optimizer.h).
//
// The apply protocol is three-phase so the query-lifecycle contract
// holds: Phase A computes all node deltas bottom-up without mutating any
// cache or the result (cancellation, deadline, budget and the
// `view.delta_apply` failpoint surface here, leaving everything
// pre-delta); Phase B validates that every removal is actually present
// (a mismatch means the caches drifted — the caller falls back to a full
// recompute); Phase C commits infallibly: caches, the maintainer-owned
// interval indexes (patched in place via ApplyInsert/ApplyRemove, or
// marked for rebuild once the applied-delta fraction passes a
// threshold), the view result, and the log cursors.
//
// Whether a pending batch is worth applying incrementally is a cost
// decision (PreferDeltaApply): per-join delta cost — index probes
// estimated with the interval histograms of storage/stats.h — against
// the cost of a full recompute, plus a cap on the pending fraction of
// the base data. MaterializedView (query/materialized_view.h) consults
// it on every Refresh and silently recomputes when the answer is no.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/exec_context.h"
#include "query/plan.h"
#include "util/result.h"

namespace ongoingdb {

/// Incremental maintenance state of one materialized view: a shadow tree
/// of the plan holding log cursors at the scans, cached inputs plus an
/// optional interval index at the joins, and a hashed position map over
/// the view result for in-place patching. Not thread-safe; owned and
/// serialized by the view that created it.
class ViewDeltaMaintainer {
 public:
  /// Passkey: lets TryCreate use std::make_unique while keeping the
  /// class constructible only through the factory.
  struct Passkey {
    explicit Passkey() = default;
  };
  explicit ViewDeltaMaintainer(Passkey);

  /// Builds the shadow tree for `plan`, or returns nullptr when the plan
  /// is not maintainable: a scanned base relation has no modification
  /// log, a predicate is missing, or a projection name does not resolve.
  /// The maintainer is created un-ready; Reseed() after a full recompute
  /// makes it usable.
  static std::unique_ptr<ViewDeltaMaintainer> TryCreate(const PlanPtr& plan);

  ~ViewDeltaMaintainer();
  ViewDeltaMaintainer(const ViewDeltaMaintainer&) = delete;
  ViewDeltaMaintainer& operator=(const ViewDeltaMaintainer&) = delete;

  /// True once Reseed() has anchored the caches and cursors to a freshly
  /// recomputed result (and no Invalidate() since).
  bool ready() const { return ready_; }

  /// True when some base relation has logged changes past this
  /// maintainer's cursors — or replaced/detached its log entirely, which
  /// also means the view is stale (but see CanApplyIncrementally).
  bool HasPendingDeltas() const;

  /// True when every scan's log is still the one the maintainer anchored
  /// to and none has trimmed past its cursor, i.e. the pending changes
  /// are replayable. False forces the full-recompute path.
  bool CanApplyIncrementally() const;

  /// The cost gate: true when applying the pending deltas is estimated
  /// cheaper than recomputing the view, and the pending batch is a small
  /// fraction of the base data. Uses the cached input sizes and the
  /// inner-column interval histograms captured at Reseed time.
  bool PreferDeltaApply() const;

  /// Anchors the maintainer to `result`, which must be a fresh full
  /// evaluation of the plan against the bases' current state: drains the
  /// join input subplans into the caches, (re)builds the owned interval
  /// indexes and histograms, keys the result positions, and advances
  /// every cursor to its log's next sequence. On error the maintainer is
  /// left un-ready (the view keeps working through full recomputes).
  Status Reseed(const OngoingRelation& result, QueryContext* ctx);

  /// Applies everything logged since the cursors to `*result` in place.
  /// Returns true on success, false when the apply should not or could
  /// not proceed (not ready, log trimmed, or a Phase-B validation
  /// mismatch) — the caller recomputes instead. An error Status (a
  /// lifecycle event, the `view.delta_apply` failpoint, an evaluation
  /// failure) leaves `*result`, the caches, and the cursors exactly
  /// pre-delta, so the view keeps serving its previous materialization.
  Result<bool> ApplyPending(OngoingRelation* result, QueryContext* ctx);

  /// Drops the anchored state (caches, indexes, result positions) and
  /// marks the maintainer un-ready until the next Reseed().
  void Invalidate();

 private:
  struct DeltaNode;

  /// One signed element of a tuple-multiset delta.
  struct DeltaEntry {
    int sign = 1;  // +1 insert, -1 remove
    Tuple tuple;
  };

  /// Hash and equality of a tuple's values and RT (values compare as
  /// ValueEq does), for maps keyed by a borrowed tuple.
  struct TupleHash {
    size_t operator()(const Tuple* t) const;
  };
  struct TupleEq {
    bool operator()(const Tuple* a, const Tuple* b) const;
  };
  /// Net count change per distinct delta tuple. The key borrows a tuple
  /// of the delta vector that produced the map, which is also the
  /// representative a positive net inserts.
  using NetMap =
      std::unordered_map<const Tuple*, long long, TupleHash, TupleEq>;
  /// The positions of a relation's tuples by TupleHash. Tuples that
  /// collide share a bucket and are told apart by comparing the stored
  /// tuples themselves.
  using PositionsMap = std::unordered_map<size_t, std::vector<size_t>>;

  static std::unique_ptr<DeltaNode> BuildNode(const PlanPtr& plan);
  static Status ReseedNode(DeltaNode* node, QueryContext* ctx);
  static bool NodeHasPending(const DeltaNode* node);
  static bool NodeCanApply(const DeltaNode* node);
  static double CostWalk(const DeltaNode* node, double* delta_cost,
                         double* recompute_cost, double* pending,
                         double* base_total);
  static Status ComputeDelta(DeltaNode* node, QueryContext* ctx,
                             MemoryCharge* charge);
  static Status EmitJoinPair(DeltaNode* node, const Tuple& lt,
                             const Tuple& rt, int sign, MemoryCharge* charge);
  static void BuildNets(DeltaNode* node);
  static bool ValidateTree(const DeltaNode* node);
  static void CommitTree(DeltaNode* node);
  static void ClearDeltas(DeltaNode* node);
  static void RebuildPositions(const OngoingRelation& rel, PositionsMap* out);
  static bool ValidateNet(const OngoingRelation& rel,
                          const PositionsMap& positions, const NetMap& net);
  static void CommitInto(OngoingRelation* rel, PositionsMap* positions,
                         const NetMap& net, DeltaNode* index_owner);

  std::unique_ptr<DeltaNode> root_;
  PositionsMap root_positions_;
  bool ready_ = false;
};

}  // namespace ongoingdb
