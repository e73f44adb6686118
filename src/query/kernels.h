// Vectorized interval-predicate kernels (docs/DESIGN.md, "Vectorized
// kernels"). Temporal selections — FilterOp and IndexScanOp's residual —
// are dominated by Allen comparisons of a fixed-interval column against
// a literal or a paired column. The scalar path pays per row for
// virtual Expr dispatch, a by-name column lookup per operand and a
// Value round trip; the kernels here instead run branch-lean loops over
// TupleBatch's contiguous column views (relation/tuple_batch.h) and
// communicate survivors through a selection vector. Join residuals do
// not come here: a join evaluates them on the stored input pair before
// it copies anything (query/join.h, PairPredicate).
//
// Division of labor:
//
//  * The free kernels (FilterIntervalVsLiteral & co.) are the inner
//    loops: selection vector in, selection vector out, predicate
//    computed with bitwise arithmetic so the compiler can keep the loop
//    branch-free and auto-vectorize it. Their row semantics match the
//    fixed Allen comparators (core/operations.cc, *F) exactly.
//
//  * BatchPredicate is the compiling front end: it partitions a
//    conjunction's top-level conjuncts into kernel-eligible atoms and a
//    scalar remainder at operator-construction time, then filters whole
//    batches (gather -> kernels -> compaction). Anything it cannot
//    prove eligible — unsupported Allen ops (starts/finishes/during/
//    equals), non-interval columns, ongoing literals in ongoing mode —
//    stays in the remainder and flows through the existing scalar
//    evaluators unchanged.
//
// Eligibility rules (both execution modes): an atom compiles iff it is
//   col ALLEN-OP literal / literal ALLEN-OP col   (before/meets/overlaps)
//   col ALLEN-OP col                              (ditto, both columns)
//   col CONTAINS literal-point | point-column
// where every column is kFixedInterval (kTimePoint for the contains
// point) in the operator's physical schema and the literal denotes a
// fixed value — instantiated at rt first in kAtReferenceTime mode
// (matching LiteralExpr::EvalScalarFixed), required to already be fixed
// in kOngoing mode. An eligible atom is therefore fixed-only
// (Expr::IsFixedOnly), which is what makes extracting it from an
// ongoing-mode predicate exact: a fixed-only conjunct contributes a
// constant reference-time set (everything or nothing), so evaluating it
// as a boolean batch filter commutes with the RT intersection the
// remaining conjuncts perform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/interval_bounds.h"
#include "core/time.h"
#include "expr/expr.h"
#include "relation/schema.h"
#include "relation/tuple_batch.h"
#include "util/result.h"

namespace ongoingdb {
namespace kernels {

/// The probe op for `column ALLEN-OP probe` when the column is the lhs,
/// and for `probe ALLEN-OP column` when flipped; nullopt for the Allen
/// ops with no kernel/index form (starts/finishes/during/equals).
/// Shared vocabulary of the kernels and the optimizer's index-scan and
/// index-join eligibility matching (query/optimizer.cc).
std::optional<IntervalProbeOp> ProbeOpFor(AllenOp op, bool column_is_lhs);

// --- selection-vector kernels ----------------------------------------------
// Contract: `sel` names `n` row indices (ascending); the kernel writes
// the surviving indices to `out` (which may alias `sel` — the common
// in-place shrink) and returns the new count. Row semantics equal the
// fixed Allen comparators of core/operations.cc applied to
// {start[r], end[r]} and the probe.

/// column-vs-literal: kBefore/kAfter/kMeets/kMetBy/kOverlaps treat
/// `probe` as the literal interval; kContains treats probe.start as the
/// probed time point.
size_t FilterIntervalVsLiteral(IntervalProbeOp op, const TimePoint* start,
                               const TimePoint* end, FixedInterval probe,
                               const uint32_t* sel, size_t n, uint32_t* out);

/// column-vs-column: lhs {ls, le} ALLEN-OP rhs {rs, re} per row.
/// kContains is not a column-pair op here; it yields no survivors.
size_t FilterIntervalVsInterval(IntervalProbeOp op, const TimePoint* ls,
                                const TimePoint* le, const TimePoint* rs,
                                const TimePoint* re, const uint32_t* sel,
                                size_t n, uint32_t* out);

/// interval-column CONTAINS point-column per row.
size_t FilterIntervalContainsPoint(const TimePoint* start,
                                   const TimePoint* end,
                                   const TimePoint* point,
                                   const uint32_t* sel, size_t n,
                                   uint32_t* out);

// --- global toggle ----------------------------------------------------------
// The scalar-vs-columnar ablation seam of the filters (benches,
// equivalence tests). Checked at BatchPredicate::Compile time, so it
// must be set before the plan is compiled; not thread-safe against
// concurrent compilation. Joins are unaffected.

void SetKernelFilteringEnabled(bool enabled);
bool KernelFilteringEnabled();

// --- compiling front end ----------------------------------------------------

/// One kernel-eligible conjunct, resolved to column indices and a fixed
/// probe at compile time.
struct KernelAtom {
  enum class Rhs {
    kLiteralInterval,  ///< probe is the literal interval
    kLiteralPoint,     ///< probe.start is the literal time point
    kIntervalColumn,   ///< rhs_col is a paired kFixedInterval column
    kPointColumn,      ///< rhs_col is a paired kTimePoint column
  };

  IntervalProbeOp op = IntervalProbeOp::kOverlaps;
  size_t lhs_col = 0;
  Rhs rhs = Rhs::kLiteralInterval;
  size_t rhs_col = 0;
  FixedInterval probe;
  ExprPtr source;  ///< the original conjunct, for the scalar fallback
};

/// Compiles a conjunctive predicate into kernel atoms plus a scalar
/// remainder, and filters whole batches through the atoms.
class BatchPredicate {
 public:
  /// Partitions `conjunction`'s top-level conjuncts (null = true). In
  /// kAtReferenceTime mode (`at_reference_time`) literals instantiate
  /// at `rt` before the fixed-type check; in ongoing mode only
  /// already-fixed literals are eligible. With kernel filtering
  /// disabled, everything lands in the remainder.
  void Compile(const ExprPtr& conjunction, const Schema& schema,
               bool at_reference_time, TimePoint rt);

  bool HasKernelAtoms() const { return !atoms_.empty(); }

  /// The conjuncts left for the caller's scalar path (null = true).
  const ExprPtr& remainder() const { return remainder_; }

  /// Filters `batch` in place through the compiled atoms: gather column
  /// views, run the kernels over a selection vector, compact survivors
  /// to the batch prefix. When a gather fails (a null or mismatched
  /// value), the whole batch falls back to scalar evaluation of the
  /// same atoms — identical result, no partial kernel state. The
  /// caller's remainder/RT handling runs after this on the survivors.
  Status Apply(TupleBatch* batch);

 private:
  bool MatchAtom(const ExprPtr& conjunct, const Schema& schema,
                 bool at_reference_time, TimePoint rt, KernelAtom* atom) const;
  Status ApplyScalar(TupleBatch* batch);

  std::vector<KernelAtom> atoms_;
  ExprPtr remainder_;
  const Schema* schema_ = nullptr;
  TimePoint rt_ = 0;
  std::vector<uint32_t> sel_;
};

}  // namespace kernels
}  // namespace ongoingdb
