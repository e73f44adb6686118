#include "query/view_maintenance.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>

#include "query/interval_index.h"
#include "query/join.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "storage/stats.h"
#include "util/failpoint.h"

namespace ongoingdb {

namespace {

// The delta-apply fault seam: planted at the top of ApplyPending, before
// Phase A touches any log. A triggered failure proves the all-or-nothing
// contract — the view result, the caches, and the cursors stay exactly
// pre-delta, and the next (disarmed) refresh converges.
Failpoint& fp_view_delta_apply = Failpoint::GetOrCreate("view.delta_apply");

// Deltas below this fraction of the base data are candidates for
// incremental apply; larger batches recompute (the crossover the
// view_refresh bench locates sits well above this for join plans).
constexpr double kMaxPendingFraction = 0.25;

// Once this fraction of a cached inner has been patched in place, the
// owned interval index is rebuilt instead of patched further (each
// in-place patch is O(n) in the worst case, so unbounded patching would
// quietly degrade probes).
constexpr double kIndexRebuildFraction = 0.10;

// Cost-unit ratio between one swept index entry (a couple of integer
// comparisons against the probe bounds) and one tuple of recompute work
// (a full pull through the operator pipeline: batch staging, predicate
// evaluation, copies). Discounting the sweep term by this keeps the
// cost gate from recomputing small batches whose probes sweep a wide
// start-range but match almost nothing — the measured imbalance in
// bench/view_refresh.cc is well above 16x, so this is still
// conservative.
constexpr double kSweptEntryCostDiscount = 16.0;

// Median fence of an equi-depth histogram (0 when empty).
TimePoint HistMedian(const EquiDepthHistogram& h) {
  if (h.empty()) return 0;
  return h.fences[h.fences.size() / 2];
}

}  // namespace

size_t ViewDeltaMaintainer::TupleHash::operator()(const Tuple* t) const {
  size_t h = t->num_values();
  for (const Value& v : t->values()) h = HashCombine(h, ValueHash{}(v));
  for (const FixedInterval& iv : t->rt().intervals()) {
    h = HashCombine(h, std::hash<TimePoint>{}(iv.start));
    h = HashCombine(h, std::hash<TimePoint>{}(iv.end));
  }
  return h;
}

bool ViewDeltaMaintainer::TupleEq::operator()(const Tuple* a,
                                              const Tuple* b) const {
  return a->rt() == b->rt() &&
         std::equal(a->values().begin(), a->values().end(),
                    b->values().begin(), b->values().end(), ValueEq{});
}

// One node of the shadow tree. `left` doubles as the single child of
// Filter/Project nodes.
struct ViewDeltaMaintainer::DeltaNode {
  // A cached join input: the materialized pre-state relation plus a
  // keyed position map for in-place patching.
  struct CachedInput {
    OngoingRelation rel;
    PositionsMap positions;

    void Clear() {
      rel = OngoingRelation();
      positions.clear();
    }
  };

  PlanKind kind = PlanKind::kScan;
  PlanPtr plan;   // the mirrored logical node (keeps the plan alive)
  Schema schema;  // output schema under ongoing semantics

  // Scan.
  const OngoingRelation* base = nullptr;
  std::shared_ptr<ModificationLog> log;
  uint64_t cursor = 1;          // next log sequence not yet applied
  uint64_t consumed_until = 1;  // Phase A high-water mark, committed in C

  // Project: resolved ordinals into the child schema.
  std::vector<size_t> indices;

  // Children (Filter/Project use `left` only).
  std::unique_ptr<DeltaNode> left, right;

  // Filter / Join: the predicate compiled against the stored input(s).
  std::optional<PairPredicate> pair;
  CachedInput left_cache, right_cache;
  std::optional<IndexJoinInfo> index_info;
  std::optional<IntervalIndex> index;  // over right_cache.rel
  std::optional<IntervalColumnStats> inner_stats;
  bool index_needs_rebuild = false;
  size_t index_deltas_applied = 0;

  // Transient per-ApplyPending state (cleared on every exit path).
  std::vector<DeltaEntry> delta;
  NetMap net;
};

ViewDeltaMaintainer::ViewDeltaMaintainer(Passkey) {}
ViewDeltaMaintainer::~ViewDeltaMaintainer() = default;

// --- construction -----------------------------------------------------------

std::unique_ptr<ViewDeltaMaintainer::DeltaNode> ViewDeltaMaintainer::BuildNode(
    const PlanPtr& plan) {
  if (plan == nullptr) return nullptr;
  auto n = std::make_unique<DeltaNode>();
  n->kind = plan->kind();
  n->plan = plan;
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto* scan = static_cast<const ScanNode*>(plan.get());
      n->base = &scan->relation();
      n->log = n->base->SharedModificationLog();
      if (n->log == nullptr) return nullptr;
      n->cursor = n->log->next_seq();
      n->schema = n->base->schema();
      return n;
    }
    case PlanKind::kFilter: {
      const auto* filter = static_cast<const FilterNode*>(plan.get());
      n->left = BuildNode(filter->child());
      if (n->left == nullptr) return nullptr;
      if (filter->predicate() == nullptr) return nullptr;
      n->schema = n->left->schema;
      n->pair.emplace(filter->predicate(), n->schema,
                      /*at_reference_time=*/false, 0);
      return n;
    }
    case PlanKind::kProject: {
      const auto* project = static_cast<const ProjectNode*>(plan.get());
      n->left = BuildNode(project->child());
      if (n->left == nullptr) return nullptr;
      for (const std::string& name : project->names()) {
        Result<size_t> idx = n->left->schema.IndexOf(name);
        if (!idx.ok()) return nullptr;
        n->indices.push_back(*idx);
      }
      n->schema = n->left->schema.Project(n->indices);
      return n;
    }
    case PlanKind::kJoin: {
      const auto* join = static_cast<const JoinNode*>(plan.get());
      n->left = BuildNode(join->left());
      n->right = BuildNode(join->right());
      if (n->left == nullptr || n->right == nullptr) return nullptr;
      if (join->predicate() == nullptr) return nullptr;
      n->schema = n->left->schema.Concat(n->right->schema, join->left_prefix(),
                                         join->right_prefix());
      n->pair.emplace(join->predicate(), n->schema,
                      n->left->schema.num_attributes(),
                      /*at_reference_time=*/false, 0);
      n->index_info =
          MatchIndexJoin(*join, n->left->schema, n->right->schema);
      return n;
    }
  }
  return nullptr;
}

std::unique_ptr<ViewDeltaMaintainer> ViewDeltaMaintainer::TryCreate(
    const PlanPtr& plan) {
  std::unique_ptr<DeltaNode> root = BuildNode(plan);
  if (root == nullptr) return nullptr;
  auto m = std::make_unique<ViewDeltaMaintainer>(Passkey{});
  m->root_ = std::move(root);
  return m;
}

// --- reseed -----------------------------------------------------------------

void ViewDeltaMaintainer::RebuildPositions(const OngoingRelation& rel,
                                           PositionsMap* out) {
  out->clear();
  for (size_t i = 0; i < rel.size(); ++i) {
    (*out)[TupleHash{}(&rel.tuple(i))].push_back(i);
  }
}

Status ViewDeltaMaintainer::ReseedNode(DeltaNode* n, QueryContext* ctx) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      if (cur == nullptr) {
        return Status::Internal(
            "view maintenance: scanned relation lost its modification log");
      }
      n->log = n->base->SharedModificationLog();
      n->cursor = cur->next_seq();
      return Status::OK();
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return ReseedNode(n->left.get(), ctx);
    case PlanKind::kJoin: {
      ONGOINGDB_RETURN_NOT_OK(ReseedNode(n->left.get(), ctx));
      ONGOINGDB_RETURN_NOT_OK(ReseedNode(n->right.get(), ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(
          PhysicalOpPtr lop,
          Compile(n->left->plan, ExecMode::kOngoing, 0, ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation lrel,
                                 DrainToRelation(*lop, ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(
          PhysicalOpPtr rop,
          Compile(n->right->plan, ExecMode::kOngoing, 0, ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation rrel,
                                 DrainToRelation(*rop, ctx));
      n->left_cache.rel = std::move(lrel);
      n->right_cache.rel = std::move(rrel);
      RebuildPositions(n->left_cache.rel, &n->left_cache.positions);
      RebuildPositions(n->right_cache.rel, &n->right_cache.positions);
      n->index.reset();
      n->inner_stats.reset();
      n->index_needs_rebuild = false;
      n->index_deltas_applied = 0;
      if (n->index_info.has_value()) {
        Result<IntervalIndex> built =
            IntervalIndex::Build(n->right_cache.rel, n->index_info->inner_column);
        if (built.ok()) n->index.emplace(std::move(built).ValueOrDie());
        Result<IntervalColumnStats> stats = ComputeIntervalColumnStats(
            n->right_cache.rel, n->index_info->inner_column_index);
        if (stats.ok()) n->inner_stats.emplace(std::move(stats).ValueOrDie());
      }
      return Status::OK();
    }
  }
  return Status::Internal("view maintenance: unknown plan node kind");
}

Status ViewDeltaMaintainer::Reseed(const OngoingRelation& result,
                                   QueryContext* ctx) {
  ready_ = false;
  ONGOINGDB_RETURN_NOT_OK(ReseedNode(root_.get(), ctx));
  RebuildPositions(result, &root_positions_);
  ready_ = true;
  return Status::OK();
}

void ViewDeltaMaintainer::Invalidate() {
  ready_ = false;
  root_positions_.clear();
  // Drop anchored bulk state so an invalidated maintainer does not pin
  // stale copies of the join inputs.
  struct Dropper {
    static void Drop(DeltaNode* n) {
      if (n == nullptr) return;
      n->net.clear();  // its keys borrow the delta tuples
      n->delta.clear();
      n->left_cache.Clear();
      n->right_cache.Clear();
      n->index.reset();
      n->inner_stats.reset();
      n->index_needs_rebuild = false;
      n->index_deltas_applied = 0;
      Drop(n->left.get());
      Drop(n->right.get());
    }
  };
  Dropper::Drop(root_.get());
}

// --- staleness and cost gating ----------------------------------------------

bool ViewDeltaMaintainer::NodeHasPending(const DeltaNode* n) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      if (cur != n->log.get()) return true;  // detached or replaced
      return cur->next_seq() > n->cursor;
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return NodeHasPending(n->left.get());
    case PlanKind::kJoin:
      return NodeHasPending(n->left.get()) || NodeHasPending(n->right.get());
  }
  return false;
}

bool ViewDeltaMaintainer::HasPendingDeltas() const {
  return ready_ && NodeHasPending(root_.get());
}

bool ViewDeltaMaintainer::NodeCanApply(const DeltaNode* n) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      return cur != nullptr && cur == n->log.get() &&
             n->cursor >= cur->first_available_seq();
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return NodeCanApply(n->left.get());
    case PlanKind::kJoin:
      return NodeCanApply(n->left.get()) && NodeCanApply(n->right.get());
  }
  return false;
}

bool ViewDeltaMaintainer::CanApplyIncrementally() const {
  return ready_ && NodeCanApply(root_.get());
}

// Returns the node's delta-size upper bound while accumulating the cost
// terms: delta_cost charges each join for its three delta terms (index
// probes estimated via the sweep fraction when an owned index exists),
// recompute_cost charges scans and join inputs linearly — the shape of
// a full re-evaluation.
double ViewDeltaMaintainer::CostWalk(const DeltaNode* n, double* delta_cost,
                                     double* recompute_cost, double* pending,
                                     double* base_total) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      const double p =
          (cur == n->log.get() && cur != nullptr && cur->next_seq() > n->cursor)
              ? static_cast<double>(cur->next_seq() - n->cursor)
              : 0.0;
      *pending += p;
      *delta_cost += p;
      *base_total += static_cast<double>(n->base->size());
      *recompute_cost += static_cast<double>(n->base->size());
      return p;
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return CostWalk(n->left.get(), delta_cost, recompute_cost, pending,
                      base_total);
    case PlanKind::kJoin: {
      const double dl = CostWalk(n->left.get(), delta_cost, recompute_cost,
                                 pending, base_total);
      const double dr = CostWalk(n->right.get(), delta_cost, recompute_cost,
                                 pending, base_total);
      const double l0 = static_cast<double>(n->left_cache.rel.size());
      const double r0 = static_cast<double>(n->right_cache.rel.size());
      double per_probe = r0;
      if (n->index.has_value() && !n->index_needs_rebuild) {
        double sweep = 1.0;
        if (n->inner_stats.has_value()) {
          const IntervalColumnStats& s = *n->inner_stats;
          const IntervalBounds probe{
              HistMedian(s.min_start), HistMedian(s.max_start),
              HistMedian(s.min_end), HistMedian(s.max_end)};
          sweep = s.EstimateSweepFraction(n->index_info->op, probe);
        }
        per_probe = std::max(r0 > 1.0 ? std::log2(r0) : 1.0,
                             sweep * r0 / kSweptEntryCostDiscount);
      }
      *delta_cost += dl * per_probe + l0 * dr + dl * dr;
      *recompute_cost += l0 + r0;
      return dl * r0 + l0 * dr + dl * dr;
    }
  }
  return 0.0;
}

bool ViewDeltaMaintainer::PreferDeltaApply() const {
  if (!ready_) return false;
  double delta_cost = 0, recompute_cost = 0, pending = 0, base_total = 0;
  (void)CostWalk(root_.get(), &delta_cost, &recompute_cost, &pending,
                 &base_total);
  if (pending <= 0) return true;  // nothing to do is always cheap
  if (pending > kMaxPendingFraction * std::max(1.0, base_total)) return false;
  return delta_cost < recompute_cost;
}

// --- Phase A: delta computation ---------------------------------------------

Status ViewDeltaMaintainer::EmitJoinPair(DeltaNode* n, const Tuple& lt,
                                         const Tuple& rt, int sign,
                                         MemoryCharge* charge) {
  // The pair atoms run on the stored tuples first; only a surviving
  // pair is copied into a joined tuple.
  IntervalSet joined_rt = lt.rt().Intersect(rt.rt());
  if (joined_rt.IsEmpty()) return Status::OK();
  IntervalSet scratch;
  ONGOINGDB_RETURN_NOT_OK(n->pair->Restrict(lt, rt, &joined_rt, &scratch));
  if (joined_rt.IsEmpty()) return Status::OK();
  std::vector<Value> values;
  values.reserve(lt.num_values() + rt.num_values());
  values.insert(values.end(), lt.values().begin(), lt.values().end());
  values.insert(values.end(), rt.values().begin(), rt.values().end());
  Tuple out(std::move(values), std::move(joined_rt));
  ONGOINGDB_RETURN_NOT_OK(n->pair->RestrictRemainder(
      n->schema, out, &out.mutable_rt(), &scratch));
  if (out.rt().IsEmpty()) return Status::OK();
  ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(out)));
  n->delta.push_back(DeltaEntry{sign, std::move(out)});
  return Status::OK();
}

Status ViewDeltaMaintainer::ComputeDelta(DeltaNode* n, QueryContext* ctx,
                                         MemoryCharge* charge) {
  n->net.clear();  // its keys borrow the delta tuples
  n->delta.clear();
  if (ctx != nullptr) ONGOINGDB_RETURN_NOT_OK(ctx->Check());
  switch (n->kind) {
    case PlanKind::kScan: {
      if (n->log == nullptr || n->base->modification_log() != n->log.get()) {
        return Status::Internal(
            "view maintenance: modification log detached mid-apply");
      }
      std::vector<const Modification*> entries;
      if (!n->log->EntriesSince(n->cursor, &entries)) {
        return Status::Internal(
            "view maintenance: modification log trimmed past cursor");
      }
      n->consumed_until = n->log->next_seq();
      n->delta.reserve(entries.size());
      for (const Modification* m : entries) {
        ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(m->tuple)));
        n->delta.push_back(DeltaEntry{
            m->kind == Modification::Kind::kInsert ? 1 : -1, m->tuple});
      }
      return Status::OK();
    }
    case PlanKind::kFilter: {
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->left.get(), ctx, charge));
      // The same compiled predicate a scan runs: atoms on the stored
      // delta tuple, then the remainder on it, before anything is copied.
      IntervalSet rt, scratch;
      for (const DeltaEntry& d : n->left->delta) {
        ONGOINGDB_RETURN_NOT_OK(n->pair->Restrict(d.tuple, &rt, &scratch));
        if (rt.IsEmpty()) continue;
        ONGOINGDB_RETURN_NOT_OK(n->pair->RestrictRemainder(
            n->left->schema, d.tuple, &rt, &scratch));
        if (rt.IsEmpty()) continue;
        Tuple out(d.tuple.values(), rt);
        ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(out)));
        n->delta.push_back(DeltaEntry{d.sign, std::move(out)});
      }
      return Status::OK();
    }
    case PlanKind::kProject: {
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->left.get(), ctx, charge));
      for (const DeltaEntry& d : n->left->delta) {
        std::vector<Value> values;
        values.reserve(n->indices.size());
        for (size_t idx : n->indices) values.push_back(d.tuple.value(idx));
        Tuple out(std::move(values), d.tuple.rt());
        ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(out)));
        n->delta.push_back(DeltaEntry{d.sign, std::move(out)});
      }
      return Status::OK();
    }
    case PlanKind::kJoin: {
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->left.get(), ctx, charge));
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->right.get(), ctx, charge));
      // Rebuild the owned index lazily over the (pre-delta) cache: a
      // failure here is benign — the terms fall back to nested loops.
      if (n->index_info.has_value() &&
          (n->index_needs_rebuild || !n->index.has_value())) {
        Result<IntervalIndex> built = IntervalIndex::Build(
            n->right_cache.rel, n->index_info->inner_column);
        if (built.ok()) {
          n->index.emplace(std::move(built).ValueOrDie());
          n->index_needs_rebuild = false;
          n->index_deltas_applied = 0;
        } else {
          n->index.reset();
          n->index_needs_rebuild = false;
        }
      }
      const bool use_index = n->index.has_value() && !n->index_needs_rebuild;
      size_t pairs = 0;
      auto tick = [&]() -> Status {
        if (ctx != nullptr && (++pairs & 0xFF) == 0) return ctx->Check();
        return Status::OK();
      };
      // dL |x| R0 (pre-state inner), via the owned index when possible.
      std::vector<size_t> candidates;
      for (const DeltaEntry& dl : n->left->delta) {
        if (use_index) {
          n->index->CandidatesInto(
              n->index_info->op,
              IntervalBoundsOfValue(
                  dl.tuple.value(n->index_info->outer_column_index)),
              &candidates);
          for (size_t ri : candidates) {
            ONGOINGDB_RETURN_NOT_OK(tick());
            ONGOINGDB_RETURN_NOT_OK(EmitJoinPair(
                n, dl.tuple, n->right_cache.rel.tuple(ri), dl.sign, charge));
          }
        } else {
          for (const Tuple& rt : n->right_cache.rel.tuples()) {
            ONGOINGDB_RETURN_NOT_OK(tick());
            ONGOINGDB_RETURN_NOT_OK(
                EmitJoinPair(n, dl.tuple, rt, dl.sign, charge));
          }
        }
      }
      // L0 |x| dR (pre-state outer).
      for (const DeltaEntry& dr : n->right->delta) {
        for (const Tuple& lt : n->left_cache.rel.tuples()) {
          ONGOINGDB_RETURN_NOT_OK(tick());
          ONGOINGDB_RETURN_NOT_OK(
              EmitJoinPair(n, lt, dr.tuple, dr.sign, charge));
        }
      }
      // dL |x| dR (signs multiply).
      for (const DeltaEntry& dl : n->left->delta) {
        for (const DeltaEntry& dr : n->right->delta) {
          ONGOINGDB_RETURN_NOT_OK(tick());
          ONGOINGDB_RETURN_NOT_OK(
              EmitJoinPair(n, dl.tuple, dr.tuple, dl.sign * dr.sign, charge));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("view maintenance: unknown plan node kind");
}

// --- Phase B: validation ----------------------------------------------------

void ViewDeltaMaintainer::BuildNets(DeltaNode* n) {
  if (n == nullptr) return;
  BuildNets(n->left.get());
  BuildNets(n->right.get());
  n->net.clear();
  for (const DeltaEntry& d : n->delta) n->net[&d.tuple] += d.sign;
}

bool ViewDeltaMaintainer::ValidateNet(const OngoingRelation& rel,
                                      const PositionsMap& positions,
                                      const NetMap& net) {
  for (const auto& [rep, count] : net) {
    if (count >= 0) continue;
    auto it = positions.find(TupleHash{}(rep));
    if (it == positions.end()) return false;
    const long long have = std::count_if(
        it->second.begin(), it->second.end(),
        [&](size_t pos) { return TupleEq{}(&rel.tuple(pos), rep); });
    if (have + count < 0) return false;
  }
  return true;
}

bool ViewDeltaMaintainer::ValidateTree(const DeltaNode* n) {
  if (n == nullptr) return true;
  if (!ValidateTree(n->left.get()) || !ValidateTree(n->right.get())) {
    return false;
  }
  if (n->kind == PlanKind::kJoin) {
    if (!ValidateNet(n->left_cache.rel, n->left_cache.positions,
                     n->left->net) ||
        !ValidateNet(n->right_cache.rel, n->right_cache.positions,
                     n->right->net)) {
      return false;
    }
  }
  return true;
}

// --- Phase C: commit --------------------------------------------------------

void ViewDeltaMaintainer::CommitInto(OngoingRelation* rel,
                                     PositionsMap* positions,
                                     const NetMap& net,
                                     DeltaNode* index_owner) {
  IntervalIndex* index = nullptr;
  if (index_owner != nullptr && index_owner->index.has_value() &&
      !index_owner->index_needs_rebuild) {
    index = &*index_owner->index;
  }
  size_t applied = 0;
  // Removals first so inserted tuples are never relocated by a swap.
  for (const auto& [rep, count] : net) {
    if (count >= 0) continue;
    auto it = positions->find(TupleHash{}(rep));
    for (long long k = -count; k > 0 && it != positions->end(); --k) {
      // The bucket's last position holding a tuple equal to `rep`
      // (validated present); colliding tuples stay in the bucket.
      std::vector<size_t>& vec = it->second;
      auto match = std::find_if(vec.rbegin(), vec.rend(), [&](size_t p) {
        return TupleEq{}(&rel->tuple(p), rep);
      });
      if (match == vec.rend()) break;
      const size_t pos = *match;
      vec.erase(std::next(match).base());
      const size_t last = rel->size() - 1;
      if (index != nullptr) {
        const size_t moved_from = pos == last ? IntervalIndex::kNoMove : last;
        if (!index->ApplyRemove(pos, moved_from).ok()) {
          index_owner->index_needs_rebuild = true;
          index = nullptr;
        }
      }
      rel->SwapRemove(pos);
      ++applied;
      if (pos != last) {
        // The former last tuple now lives at `pos`; fix its entry. Every
        // live tuple is keyed, so find (not operator[]) keeps the map's
        // bucket count stable and `it` valid.
        auto moved = positions->find(TupleHash{}(&rel->tuple(pos)));
        if (moved != positions->end()) {
          auto mit = std::find(moved->second.begin(), moved->second.end(), last);
          if (mit != moved->second.end()) *mit = pos;
        }
      }
      if (vec.empty()) {
        positions->erase(it);
        it = positions->end();
      }
    }
  }
  for (const auto& [rep, count] : net) {
    if (count <= 0) continue;
    const size_t hash = TupleHash{}(rep);
    for (long long k = count; k > 0; --k) {
      const size_t before = rel->size();
      rel->AppendUnchecked(Tuple(*rep));
      if (rel->size() == before) continue;  // empty-RT drop (cannot happen)
      const size_t idx = rel->size() - 1;
      (*positions)[hash].push_back(idx);
      ++applied;
      if (index != nullptr &&
          !index->ApplyInsert(rel->tuple(idx), idx).ok()) {
        index_owner->index_needs_rebuild = true;
        index = nullptr;
      }
    }
  }
  if (index_owner != nullptr) {
    index_owner->index_deltas_applied += applied;
    if (index_owner->index.has_value() &&
        index_owner->index_deltas_applied >
            kIndexRebuildFraction *
                std::max<double>(16.0, static_cast<double>(rel->size()))) {
      index_owner->index_needs_rebuild = true;
    }
  }
}

void ViewDeltaMaintainer::CommitTree(DeltaNode* n) {
  if (n == nullptr) return;
  CommitTree(n->left.get());
  CommitTree(n->right.get());
  switch (n->kind) {
    case PlanKind::kScan:
      n->cursor = n->consumed_until;
      return;
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return;
    case PlanKind::kJoin:
      CommitInto(&n->left_cache.rel, &n->left_cache.positions, n->left->net,
                 nullptr);
      CommitInto(&n->right_cache.rel, &n->right_cache.positions, n->right->net,
                 n->index_info.has_value() ? n : nullptr);
      return;
  }
}

void ViewDeltaMaintainer::ClearDeltas(DeltaNode* n) {
  if (n == nullptr) return;
  ClearDeltas(n->left.get());
  ClearDeltas(n->right.get());
  n->net.clear();  // its keys borrow the delta tuples
  n->delta.clear();
}

// --- apply ------------------------------------------------------------------

Result<bool> ViewDeltaMaintainer::ApplyPending(OngoingRelation* result,
                                               QueryContext* ctx) {
  if (!ready_ || !CanApplyIncrementally()) return false;
  ONGOINGDB_FAILPOINT(fp_view_delta_apply);
  if (ctx != nullptr) ONGOINGDB_RETURN_NOT_OK(ctx->Check());

  // Phase A: compute every node's delta bottom-up. Nothing below mutates
  // a cache, the result, or a cursor, so any error leaves the view
  // exactly pre-delta (the charge's destructor releases the accounting).
  MemoryCharge charge;
  charge.Init(ctx);
  Status st = ComputeDelta(root_.get(), ctx, &charge);
  if (!st.ok()) {
    ClearDeltas(root_.get());
    return st;
  }

  // Phase B: validate that every removal is present where it will be
  // applied — the join caches and the result. A mismatch means the
  // anchored state drifted; fall back to a recompute (benign).
  BuildNets(root_.get());
  if (!ValidateTree(root_.get()) ||
      !ValidateNet(*result, root_positions_, root_->net)) {
    ClearDeltas(root_.get());
    return false;
  }

  // Phase C: commit — infallible by construction (validated removals,
  // appends, index patches that degrade to a rebuild mark on failure).
  CommitTree(root_.get());
  CommitInto(result, &root_positions_, root_->net, nullptr);
  ClearDeltas(root_.get());
  return true;
}

}  // namespace ongoingdb
