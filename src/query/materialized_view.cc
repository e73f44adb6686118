#include "query/materialized_view.h"

namespace ongoingdb {

Result<MaterializedView> MaterializedView::Create(PlanPtr plan) {
  MaterializedView view(std::move(plan));
  ONGOINGDB_RETURN_NOT_OK(view.Refresh());
  return view;
}

Status MaterializedView::EnsureCompiled(QueryContext* ctx) {
  if (compiled_ == nullptr) {
    ONGOINGDB_ASSIGN_OR_RETURN(compiled_,
                               Compile(plan_, ExecMode::kOngoing, 0, ctx));
    compiled_ctx_ = ctx;
  } else if (ctx != compiled_ctx_) {
    // Rebind instead of recompiling: the cached tree's warm state — an
    // index-NL join's shared IntervalIndex in particular — survives a
    // change of serving context.
    compiled_->RebindContext(ctx);
    compiled_ctx_ = ctx;
  }
  return Status::OK();
}

Status MaterializedView::Refresh(QueryContext* ctx) {
  ONGOINGDB_RETURN_NOT_OK(EnsureCompiled(ctx));
  if (maintenance_ != nullptr && maintenance_->ready()) {
    if (!maintenance_->HasPendingDeltas()) {
      last_refresh_mode_ = RefreshMode::kNoop;
      return Status::OK();
    }
    if (maintenance_->CanApplyIncrementally() &&
        maintenance_->PreferDeltaApply()) {
      // An error (lifecycle, failpoint) leaves the result pre-delta and
      // surfaces; `false` is the benign fall-back-to-recompute signal.
      ONGOINGDB_ASSIGN_OR_RETURN(bool applied,
                                 maintenance_->ApplyPending(&result_, ctx));
      if (applied) {
        last_refresh_mode_ = RefreshMode::kDelta;
        return Status::OK();
      }
      maintenance_->Invalidate();
    }
  }
  return RefreshFull(ctx);
}

Status MaterializedView::RefreshFull(QueryContext* ctx) {
  ONGOINGDB_RETURN_NOT_OK(EnsureCompiled(ctx));
  // DrainToRelation re-opens the tree, which fully resets operator state
  // (the Open() contract) and re-reads the borrowed base relations. On a
  // lifecycle error the drained partial result is discarded here and the
  // view keeps serving its previous materialization.
  ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation refreshed,
                             DrainToRelation(*compiled_, ctx));
  result_ = std::move(refreshed);
  last_refresh_mode_ = RefreshMode::kRecompute;
  if (maintenance_ == nullptr) {
    maintenance_ = ViewDeltaMaintainer::TryCreate(plan_);
  }
  if (maintenance_ != nullptr) {
    // Re-anchoring is best-effort: the result above is already fresh and
    // correct, so a reseed failure (e.g. a deadline expiring while the
    // join input caches drain) must not fail the refresh — it only
    // costs the next refresh its incremental path.
    Status st = maintenance_->Reseed(result_, ctx);
    if (!st.ok()) maintenance_->Invalidate();
  }
  return Status::OK();
}

}  // namespace ongoingdb
