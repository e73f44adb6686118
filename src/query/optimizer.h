// Rule-based plan rewriting (Sec. VIII "Query Optimization"). The same
// rewrite rules hold for operators on ongoing relations as for fixed
// relations: conjunctive selections split and push below joins, and join
// algorithms are chosen from the available fixed-attribute equality
// conjuncts. The ongoing/fixed predicate split itself happens inside the
// executor via expr::Split.
#pragma once

#include <optional>
#include <string>

#include "core/interval_bounds.h"
#include "query/physical.h"
#include "query/plan.h"
#include "util/result.h"

namespace ongoingdb {

/// The output schema a plan will produce (computed without executing).
Result<Schema> OutputSchema(const PlanPtr& plan);

/// The degree-of-parallelism decision of the parallel Compile()
/// overload: options.workers, clamped to 1
/// (serial) when the plan's base relations hold fewer than
/// options.min_parallel_tuples tuples in total. On small inputs the
/// parallel plan's fixed costs — pipeline setup, cross-thread batch
/// handoff, and the K-fold re-scan of repartitioned join inputs —
/// exceed the work being split.
size_t EffectiveWorkers(const PlanPtr& plan, const ParallelOptions& options);

/// Pushes filter conjuncts below joins when all referenced columns
/// resolve in one join input (sigma_{theta1 ^ theta2}(R) ==
/// sigma_theta1(sigma_theta2(R)) plus commuting with join inputs).
Result<PlanPtr> PushDownFilters(const PlanPtr& plan);

/// A recognized index-eligible temporal join conjunct: the join
/// predicate has a top-level conjunct `outer.col op inner.col` (either
/// orientation) with op in {overlaps, before, meets}, the inner (right)
/// input a bare base-relation Scan, and both columns interval
/// attributes. IndexJoinOp (query/physical.cc) builds an IntervalIndex
/// on the inner column and probes it with each outer tuple's
/// conservative interval bounds; the full join predicate remains the
/// residual.
struct IndexJoinInfo {
  const OngoingRelation* inner;   ///< the inner side's base relation
  std::string inner_column;       ///< indexed attribute name on `inner`
  size_t inner_column_index;      ///< resolved ordinal on `inner`
  size_t outer_column_index;      ///< ordinal on the outer input schema
  IntervalProbeOp op;             ///< probe op, inner (indexed) side's view
};

/// Matches `node` against the index-join eligibility rules above, given
/// the join inputs' (mode-specific) schemas; nullopt when no conjunct
/// qualifies. Shared by the kAuto cost gate and the lowering, so they
/// cannot disagree.
std::optional<IndexJoinInfo> MatchIndexJoin(const JoinNode& node,
                                            const Schema& left_schema,
                                            const Schema& right_schema);

/// The algorithm JoinAlgorithm::kAuto resolves to, given the join
/// inputs' schemas. Without an index-eligible temporal conjunct the
/// historical rule applies: kHash when the predicate yields fixed
/// equality conjuncts, kNestedLoop otherwise. When MatchIndexJoin
/// recognizes a conjunct (and the inner side is large enough to
/// amortize an index build), the choice is cost-based: interval
/// histograms (storage/stats.h) estimate the probe selectivity, and the
/// cheapest of index-NL / hash / scan-NL wins. Shared by the plan
/// rewriter below and the physical lowering (query/physical.h,
/// Compile), so the two can never disagree; the estimate is
/// deterministic (stride sampling, no RNG).
Result<JoinAlgorithm> ResolveAutoJoinAlgorithm(const JoinNode& node,
                                               const Schema& left_schema,
                                               const Schema& right_schema);

/// Replaces every JoinAlgorithm::kAuto with the algorithm
/// ResolveAutoJoinAlgorithm picks for that join's input schemas.
Result<PlanPtr> ChooseJoinAlgorithms(const PlanPtr& plan);

/// Applies all rewrite rules.
Result<PlanPtr> Optimize(const PlanPtr& plan);

}  // namespace ongoingdb
