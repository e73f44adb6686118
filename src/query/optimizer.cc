#include "query/optimizer.h"

#include <algorithm>

#include "query/join.h"
#include "storage/stats.h"
#include "util/thread_pool.h"

namespace ongoingdb {

Result<Schema> OutputSchema(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return static_cast<const ScanNode*>(plan.get())->relation().schema();
    case PlanKind::kFilter:
      return OutputSchema(
          static_cast<const FilterNode*>(plan.get())->child());
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(Schema child, OutputSchema(node->child()));
      std::vector<size_t> indices;
      for (const std::string& name : node->names()) {
        ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, child.IndexOf(name));
        indices.push_back(idx);
      }
      return child.Project(indices);
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(Schema left, OutputSchema(node->left()));
      ONGOINGDB_ASSIGN_OR_RETURN(Schema right, OutputSchema(node->right()));
      return left.Concat(right, node->left_prefix(), node->right_prefix());
    }
  }
  return Status::Internal("unknown plan kind");
}

namespace {

// Total cardinality of the base relations a plan scans (each scan node
// counted once per occurrence — a self-join reads its input twice).
size_t TotalScanTuples(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return static_cast<const ScanNode*>(plan.get())->relation().size();
    case PlanKind::kFilter:
      return TotalScanTuples(static_cast<const FilterNode*>(plan.get())->child());
    case PlanKind::kProject:
      return TotalScanTuples(
          static_cast<const ProjectNode*>(plan.get())->child());
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      return TotalScanTuples(node->left()) + TotalScanTuples(node->right());
    }
  }
  return 0;
}

}  // namespace

size_t EffectiveWorkers(const PlanPtr& plan, const ParallelOptions& options) {
  if (options.workers <= 1) return 1;
  if (TotalScanTuples(plan) < options.min_parallel_tuples) return 1;
  // Never more pipelines than scheduler threads: on a FIFO pool the
  // surplus pipelines would run in waves after the first ones finish —
  // no added concurrency, but each extra partition still pays the full
  // repartition re-scan of its join inputs.
  return std::min(options.workers, TaskScheduler::Global().worker_count());
}

namespace {

// Resolves a column name against one join input: either directly, or by
// stripping the side's qualification prefix ("L.K" -> "K"). Returns the
// name valid inside that input, or nullopt.
std::optional<std::string> ResolveName(const Schema& schema,
                                       const std::string& prefix,
                                       const std::string& name) {
  if (schema.IndexOf(name).ok()) return name;
  const std::string qualifier = prefix + ".";
  if (name.size() > qualifier.size() &&
      name.compare(0, qualifier.size(), qualifier) == 0) {
    std::string rest = name.substr(qualifier.size());
    if (schema.IndexOf(rest).ok()) return rest;
  }
  return std::nullopt;
}

// If every column of `conjunct` resolves in the join input, returns the
// conjunct rewritten to the input's attribute names; nullopt otherwise.
std::optional<ExprPtr> TryRewriteForSide(const ExprPtr& conjunct,
                                         const Schema& schema,
                                         const std::string& prefix) {
  std::vector<std::string> columns;
  conjunct->CollectColumns(&columns);
  if (columns.empty()) return std::nullopt;
  for (const std::string& column : columns) {
    if (!ResolveName(schema, prefix, column)) return std::nullopt;
  }
  return conjunct->RewriteColumns([&schema, &prefix](const std::string& name) {
    return *ResolveName(schema, prefix, name);
  });
}

// The probe op for `lhs ALLEN-OP rhs` from the indexed side's view:
// the op itself when the indexed column is the lhs, flipped when it is
// the rhs; nullopt for the Allen ops with no index form
// (starts/finishes/during/equals).
std::optional<IntervalProbeOp> ProbeOpFor(AllenOp op, bool column_is_lhs) {
  switch (op) {
    case AllenOp::kOverlaps:
      return IntervalProbeOp::kOverlaps;  // symmetric
    case AllenOp::kBefore:
      return column_is_lhs ? IntervalProbeOp::kBefore
                           : IntervalProbeOp::kAfter;
    case AllenOp::kMeets:
      return column_is_lhs ? IntervalProbeOp::kMeets
                           : IntervalProbeOp::kMetBy;
    default:
      return std::nullopt;
  }
}

bool IsIntervalAttribute(const Schema& schema, size_t idx) {
  ValueType type = schema.attribute(idx).type;
  return type == ValueType::kOngoingInterval ||
         type == ValueType::kFixedInterval;
}

// Binds a conjunct operand to exactly one join side as an interval
// column; follows ExtractEquiConjuncts' rule (a usable operand resolves
// in one input only, possibly via the side's qualification prefix).
struct SideColumn {
  bool is_left;
  size_t index;
};

std::optional<SideColumn> ResolveIntervalColumn(
    const ExprPtr& operand, const Schema& left_schema,
    const Schema& right_schema, const std::string& left_prefix,
    const std::string& right_prefix) {
  std::optional<std::string> name = AsColumnName(operand);
  if (!name) return std::nullopt;
  std::optional<std::string> on_left =
      ResolveName(left_schema, left_prefix, *name);
  std::optional<std::string> on_right =
      ResolveName(right_schema, right_prefix, *name);
  if (on_left && !on_right) {
    size_t idx = *left_schema.IndexOf(*on_left);
    if (!IsIntervalAttribute(left_schema, idx)) return std::nullopt;
    return SideColumn{true, idx};
  }
  if (on_right && !on_left) {
    size_t idx = *right_schema.IndexOf(*on_right);
    if (!IsIntervalAttribute(right_schema, idx)) return std::nullopt;
    return SideColumn{false, idx};
  }
  return std::nullopt;  // unresolvable or ambiguous
}

}  // namespace

std::optional<IndexJoinInfo> MatchIndexJoin(const JoinNode& node,
                                            const Schema& left_schema,
                                            const Schema& right_schema) {
  // The inner (right) input must be a bare base-relation scan: the
  // IntervalIndex is built on (and fingerprint-cached against) the base
  // relation itself.
  if (node.right()->kind() != PlanKind::kScan) return std::nullopt;
  const auto* scan = static_cast<const ScanNode*>(node.right().get());
  std::vector<ExprPtr> conjuncts;
  CollectTopLevelConjuncts(node.predicate(), &conjuncts);
  for (const ExprPtr& conjunct : conjuncts) {
    std::optional<AllenParts> allen = AsAllen(conjunct);
    if (!allen) continue;
    std::optional<SideColumn> lhs =
        ResolveIntervalColumn(allen->lhs, left_schema, right_schema,
                              node.left_prefix(), node.right_prefix());
    std::optional<SideColumn> rhs =
        ResolveIntervalColumn(allen->rhs, left_schema, right_schema,
                              node.left_prefix(), node.right_prefix());
    if (!lhs || !rhs || lhs->is_left == rhs->is_left) continue;
    // The probe op is phrased from the inner (indexed) side's view:
    // when the inner column is the conjunct's lhs, the op applies
    // directly; when it is the rhs, before/meets flip to after/met-by.
    const bool inner_is_lhs = !lhs->is_left;
    std::optional<IntervalProbeOp> op = ProbeOpFor(allen->op, inner_is_lhs);
    if (!op) continue;
    const size_t inner_index = inner_is_lhs ? lhs->index : rhs->index;
    const size_t outer_index = inner_is_lhs ? rhs->index : lhs->index;
    // The column ordinal on the *relation* backing the scan matches the
    // schema ordinal (a scan's output schema is the relation's schema,
    // instantiated or not — ordinals are preserved either way).
    return IndexJoinInfo{&scan->relation(),
                         right_schema.attribute(inner_index).name,
                         inner_index, outer_index, *op};
  }
  return std::nullopt;
}

namespace {

// --- cost-based kAuto gating ------------------------------------------------
// Unit costs in "residual pair evaluations" (the dominant per-candidate
// cost all three join paths share). Streaming a tuple through a scan or
// a hash build/probe is a fraction of a pair evaluation; index probes
// add a binary search.
constexpr double kTupleStreamCost = 0.25;   // per tuple scanned/hashed
constexpr double kIndexBuildCost = 0.50;    // per inner tuple (sort pass)
constexpr double kProbeDescendCost = 0.25;  // per log2(inner) probe step
// Per entry the candidate sweep touches without emitting (a bound
// compare + branch — far cheaper than a residual pair evaluation, but
// charged per swept entry: a probe whose stop bound lies late walks
// nearly the whole entry list even when almost nothing survives the
// filter).
constexpr double kSweepStepCost = 0.02;
// Equality-key selectivity assumed when the key columns cannot be
// sampled (the System R default of 1/10). When both join inputs are
// base scans the gate measures it instead — see
// EstimateEquiSelectivity.
constexpr double kDefaultEquiSelectivity = 0.1;
// Below this inner size the index build's fixed costs cannot win over a
// plain scan of the inner side; kAuto never picks index-NL (mirrors the
// min_parallel_tuples serial fallback). Forced kIndexNL still compiles.
constexpr size_t kMinIndexJoinInnerTuples = 64;

double Log2Ceil(double n) {
  double bits = 1.0;
  while (n > 2.0) {
    n /= 2.0;
    bits += 1.0;
  }
  return bits;
}

// Measured equality-key selectivity: the fraction of sampled
// (outer, inner) tuple pairs whose typed join keys match. Direct and
// unbiased where a sampled-distinct estimate would systematically
// undercount high-cardinality keys — exactly the case (very selective
// keys) where assuming 1/10 made the gate pick index-NL against a hash
// join that evaluates almost no residual pairs. Falls back to the
// System R guess when either input is not a base scan (its tuples
// cannot be sampled without executing the plan).
double EstimateEquiSelectivity(const JoinNode& node,
                               const EquiJoinPlan& plan) {
  if (node.left()->kind() != PlanKind::kScan ||
      node.right()->kind() != PlanKind::kScan) {
    return kDefaultEquiSelectivity;
  }
  const OngoingRelation& left =
      static_cast<const ScanNode*>(node.left().get())->relation();
  const OngoingRelation& right =
      static_cast<const ScanNode*>(node.right().get())->relation();
  if (left.size() == 0 || right.size() == 0) return 0.0;
  // Deterministic low-discrepancy positions (multiplicative Weyl
  // sequence), not a fixed stride: a stride aliases with periodic key
  // layouts (round-robin keys at an even stride would only ever sample
  // half the residues), skewing the match rate.
  constexpr size_t kSideSample = 64;
  constexpr uint64_t kWeyl = 0x9E3779B97F4A7C15ULL;  // 2^64 / phi
  auto position = [](uint64_t k, size_t n) {
    return static_cast<size_t>((k * kWeyl) % n);
  };
  const size_t lsamples = std::min(left.size(), kSideSample);
  const size_t rsamples = std::min(right.size(), kSideSample);
  size_t matches = 0;
  for (size_t i = 0; i < lsamples; ++i) {
    for (size_t j = 0; j < rsamples; ++j) {
      if (JoinKeysEqual(left.tuple(position(i, left.size())),
                        plan.left_indices,
                        right.tuple(position(j + kSideSample, right.size())),
                        plan.right_indices)) {
        ++matches;
      }
    }
  }
  return static_cast<double>(matches) /
         static_cast<double>(lsamples * rsamples);
}

// The two per-probe fractions the index cost model needs, averaged
// over sampled outer probes: the candidate selectivity (pairs that
// reach the residual) and the sweep fraction (entries the candidate
// sweep touches per probe). When the outer input is a base scan its
// tuples are stride-sampled directly; otherwise the inner relation's
// own tuples serve as proxy probes (the two sides of a temporal join
// usually share a time domain — a documented heuristic, not a
// guarantee).
struct IndexJoinEstimate {
  double selectivity = 0.0;
  double sweep_fraction = 0.0;
};

Result<IndexJoinEstimate> EstimateIndexJoinFractions(
    const IndexJoinInfo& info, const PlanPtr& outer) {
  ONGOINGDB_ASSIGN_OR_RETURN(
      IntervalColumnStats inner_stats,
      ComputeIntervalColumnStats(*info.inner, info.inner_column_index));
  const OngoingRelation* probe_rel = info.inner;
  size_t probe_column = info.inner_column_index;
  if (outer->kind() == PlanKind::kScan) {
    const auto* scan = static_cast<const ScanNode*>(outer.get());
    probe_rel = &scan->relation();
    probe_column = info.outer_column_index;
  }
  IndexJoinEstimate estimate;
  if (probe_rel->size() == 0) return estimate;
  constexpr size_t kProbeSample = 32;
  const size_t stride =
      (probe_rel->size() + kProbeSample - 1) / kProbeSample;
  size_t samples = 0;
  for (size_t i = 0; i < probe_rel->size(); i += stride) {
    const IntervalBounds probe =
        IntervalBoundsOfValue(probe_rel->tuple(i).value(probe_column));
    estimate.selectivity +=
        inner_stats.EstimateProbeSelectivity(info.op, probe);
    estimate.sweep_fraction +=
        inner_stats.EstimateSweepFraction(info.op, probe);
    ++samples;
  }
  estimate.selectivity /= static_cast<double>(samples);
  estimate.sweep_fraction /= static_cast<double>(samples);
  return estimate;
}

}  // namespace

Result<JoinAlgorithm> ResolveAutoJoinAlgorithm(const JoinNode& node,
                                               const Schema& left_schema,
                                               const Schema& right_schema) {
  // Defined via the same PrepareEquiJoin the physical lowering
  // (Lower in query/physical.cc) keys off, so the two cannot drift
  // apart.
  ONGOINGDB_ASSIGN_OR_RETURN(
      EquiJoinPlan plan,
      PrepareEquiJoin(left_schema, right_schema, node.predicate(),
                      node.left_prefix(), node.right_prefix()));
  const JoinAlgorithm fallback =
      plan.has_keys ? JoinAlgorithm::kHash : JoinAlgorithm::kNestedLoop;
  std::optional<IndexJoinInfo> match =
      MatchIndexJoin(node, left_schema, right_schema);
  if (!match || match->inner->size() < kMinIndexJoinInnerTuples) {
    return fallback;
  }
  // Cost-based choice, in residual-pair-evaluation units. Cardinalities
  // are the base-relation proxies TotalScanTuples uses elsewhere; the
  // histograms sharpen the temporal terms — both the pairs that reach
  // the residual and the entries the candidate sweep walks per probe.
  ONGOINGDB_ASSIGN_OR_RETURN(
      IndexJoinEstimate estimate,
      EstimateIndexJoinFractions(*match, node.left()));
  const double outer_n =
      static_cast<double>(std::max<size_t>(TotalScanTuples(node.left()), 1));
  const double inner_n = static_cast<double>(match->inner->size());
  const double pairs_scan = outer_n * inner_n;
  const double cost_scan_nl =
      kTupleStreamCost * (outer_n + inner_n) + pairs_scan;
  const double cost_index_nl =
      kIndexBuildCost * inner_n +
      outer_n * (kProbeDescendCost * Log2Ceil(inner_n) +
                 kSweepStepCost * estimate.sweep_fraction * inner_n) +
      estimate.selectivity * pairs_scan;
  double cost_hash = cost_scan_nl + 1.0;  // not an option without keys
  if (plan.has_keys) {
    cost_hash = kTupleStreamCost * (outer_n + inner_n) +
                EstimateEquiSelectivity(node, plan) * pairs_scan;
  }
  if (cost_index_nl <= cost_hash && cost_index_nl <= cost_scan_nl) {
    return JoinAlgorithm::kIndexNL;
  }
  return cost_hash <= cost_scan_nl ? JoinAlgorithm::kHash : fallback;
}

Result<PlanPtr> PushDownFilters(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return plan;
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr child,
                                 PushDownFilters(node->child()));
      return ProjectPlan(std::move(child), node->names());
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr left, PushDownFilters(node->left()));
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr right,
                                 PushDownFilters(node->right()));
      return Join(std::move(left), std::move(right), node->predicate(),
                  node->left_prefix(), node->right_prefix(),
                  node->algorithm());
    }
    case PlanKind::kFilter: {
      const auto* node = static_cast<const FilterNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr child,
                                 PushDownFilters(node->child()));
      if (child->kind() != PlanKind::kJoin) {
        return Filter(std::move(child), node->predicate());
      }
      const auto* join = static_cast<const JoinNode*>(child.get());
      ONGOINGDB_ASSIGN_OR_RETURN(Schema left_schema,
                                 OutputSchema(join->left()));
      ONGOINGDB_ASSIGN_OR_RETURN(Schema right_schema,
                                 OutputSchema(join->right()));
      std::vector<ExprPtr> conjuncts;
      CollectTopLevelConjuncts(node->predicate(), &conjuncts);
      std::vector<ExprPtr> to_left, to_right, stay;
      for (const ExprPtr& conjunct : conjuncts) {
        if (auto rewritten = TryRewriteForSide(conjunct, left_schema,
                                               join->left_prefix())) {
          to_left.push_back(*rewritten);
        } else if (auto rewritten2 = TryRewriteForSide(
                       conjunct, right_schema, join->right_prefix())) {
          to_right.push_back(*rewritten2);
        } else {
          stay.push_back(conjunct);
        }
      }
      PlanPtr new_left = join->left();
      PlanPtr new_right = join->right();
      if (!to_left.empty()) new_left = Filter(new_left, AndAll(to_left));
      if (!to_right.empty()) new_right = Filter(new_right, AndAll(to_right));
      PlanPtr new_join =
          Join(std::move(new_left), std::move(new_right), join->predicate(),
               join->left_prefix(), join->right_prefix(), join->algorithm());
      if (stay.empty()) return new_join;
      return Filter(std::move(new_join), AndAll(stay));
    }
  }
  return Status::Internal("unknown plan kind");
}

Result<PlanPtr> ChooseJoinAlgorithms(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return plan;
    case PlanKind::kFilter: {
      const auto* node = static_cast<const FilterNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr child,
                                 ChooseJoinAlgorithms(node->child()));
      return Filter(std::move(child), node->predicate());
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr child,
                                 ChooseJoinAlgorithms(node->child()));
      return ProjectPlan(std::move(child), node->names());
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr left,
                                 ChooseJoinAlgorithms(node->left()));
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr right,
                                 ChooseJoinAlgorithms(node->right()));
      JoinAlgorithm algorithm = node->algorithm();
      if (algorithm == JoinAlgorithm::kAuto) {
        ONGOINGDB_ASSIGN_OR_RETURN(Schema left_schema, OutputSchema(left));
        ONGOINGDB_ASSIGN_OR_RETURN(Schema right_schema, OutputSchema(right));
        ONGOINGDB_ASSIGN_OR_RETURN(
            algorithm,
            ResolveAutoJoinAlgorithm(*node, left_schema, right_schema));
      }
      return Join(std::move(left), std::move(right), node->predicate(),
                  node->left_prefix(), node->right_prefix(), algorithm);
    }
  }
  return Status::Internal("unknown plan kind");
}

Result<PlanPtr> Optimize(const PlanPtr& plan) {
  ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr pushed, PushDownFilters(plan));
  return ChooseJoinAlgorithms(pushed);
}

}  // namespace ongoingdb
