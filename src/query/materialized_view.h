// Materialized views over ongoing query results (Sec. IX-C of the
// paper). The ongoing result is computed once; instantiated results at
// any reference time are then produced by the cheap bind operator
// instead of re-running the query, which is what makes the ongoing
// approach amortize after very few instantiations (Fig. 11/12).
//
// Because ongoing results do not get invalidated by time passing by, the
// view only needs refreshing after explicit database modifications —
// and when the modified base relations keep a ModificationLog
// (relation/relation.h), Refresh applies the logged deltas to the cached
// result in place (query/view_maintenance.h) instead of re-running the
// plan: O(|delta|) for small write batches, with a cost gate falling
// back to a full recompute when the batch is large.
#pragma once

#include <memory>

#include "query/executor.h"
#include "query/physical.h"
#include "query/plan.h"
#include "query/view_maintenance.h"
#include "util/result.h"

namespace ongoingdb {

/// How the last Refresh() satisfied its contract (observable for tests
/// and benches; carries no semantics).
enum class RefreshMode {
  kRecompute,  ///< full re-drain of the compiled tree
  kDelta,      ///< logged deltas applied to the cached result in place
  kNoop,       ///< no base relation changed since the last refresh
};

/// A cached ongoing query result with cheap instantiation.
class MaterializedView {
 public:
  /// Creates and immediately materializes the view.
  static Result<MaterializedView> Create(PlanPtr plan);

  /// The cached ongoing result (valid at every reference time).
  const OngoingRelation& ongoing_result() const { return result_; }

  /// An instantiated result at reference time rt, computed from the
  /// cached ongoing result via the bind operator (no query
  /// re-evaluation).
  OngoingRelation InstantiateAt(TimePoint rt) const {
    return InstantiateRelation(result_, rt);
  }

  /// Brings the cached result up to date; required only after base-data
  /// modifications, not after the passage of time. Three outcomes (see
  /// last_refresh_mode()):
  ///
  ///  * When every scanned base relation keeps a ModificationLog and
  ///    nothing was logged since the last refresh, this is a no-op.
  ///  * When the pending log suffix is replayable and the cost gate
  ///    (ViewDeltaMaintainer::PreferDeltaApply) estimates the delta
  ///    cheaper than a recompute, the deltas are pushed through the
  ///    plan's operators and patched into the cached result in place.
  ///  * Otherwise the plan is re-drained in full. The tree is lowered
  ///    once at view creation; refreshes re-open the cached physical
  ///    operator tree, and serving under a different `ctx` rebinds the
  ///    context on the existing tree (RebindContext) instead of
  ///    recompiling — warm state such as an index-NL join's inner
  ///    IntervalIndex survives, rebuilt only when its fingerprint shows
  ///    the base data changed.
  ///
  /// A non-null `ctx` makes the refresh observe the query-lifecycle
  /// contract (query/exec_context.h) on every path: cancellation,
  /// deadline, and budget surface as their typed Status, the cached
  /// result keeps its previous value, and a later Refresh (after
  /// ctx->Reset()) succeeds.
  Status Refresh(QueryContext* ctx = nullptr);

  /// Forces the full-recompute path (re-drains the compiled tree and
  /// re-anchors the delta maintainer), regardless of pending deltas.
  /// The recompute baseline of the view_refresh bench.
  Status RefreshFull(QueryContext* ctx = nullptr);

  /// How the most recent successful Refresh()/RefreshFull() ran.
  RefreshMode last_refresh_mode() const { return last_refresh_mode_; }

 private:
  explicit MaterializedView(PlanPtr plan) : plan_(std::move(plan)) {}

  /// Compiles the plan on first use; rebinds the lifecycle context on
  /// the cached tree when `ctx` changed.
  Status EnsureCompiled(QueryContext* ctx);

  PlanPtr plan_;
  PhysicalOpPtr compiled_;
  QueryContext* compiled_ctx_ = nullptr;
  OngoingRelation result_;
  std::unique_ptr<ViewDeltaMaintainer> maintenance_;
  RefreshMode last_refresh_mode_ = RefreshMode::kRecompute;
};

}  // namespace ongoingdb
