// The pull-based, batch-at-a-time execution API. A logical plan
// (query/plan.h) is lowered by Compile() into a tree of physical
// operators; consumers drive the root with the Volcano-style protocol
//
//   Open();                    // acquire state, (re)start the stream
//   while (Next(&batch), !batch.empty()) { ...consume batch... }
//   Close();                   // release bulk state
//
// Operator contract:
//
//  * Next() clears *out, then appends up to out->capacity() result
//    tuples. An operator never returns an empty batch mid-stream: an
//    empty batch after Next() means the stream is exhausted (a partial
//    batch does NOT mean exhaustion — keep pulling until empty).
//  * Every tuple a batch hands to the consumer has its reference time
//    set; empty-RT tuples are filtered by the operators themselves
//    (Theorem 2's x.RT != {} condition).
//  * Batches are owned by the caller and recycled across Next() calls:
//    slot value vectors and IntervalSet buffers are reused, so steady
//    state emission performs no per-tuple heap allocation beyond what
//    the tuple's own payload requires.
//  * Open() fully resets the operator; Open/drain/Close cycles may be
//    repeated on the same tree (materialized-view refresh does) — also
//    after a failed run: an error Status from Open() or Next() (a
//    lifecycle event, an injected failpoint, a real fault) leaves the
//    tree reopenable, and the next Open/drain produces the full result.
//
// Query lifecycle (docs/DESIGN.md, "Query lifecycle"): a tree compiled
// against a QueryContext (query/exec_context.h) checks it cooperatively
// at every batch boundary — cancellation, deadline, and memory budget
// surface as kCancelled / kDeadlineExceeded / kResourceExhausted from
// Next(), with all producer tasks joined before the error returns.
//
// Two execution modes share the operator set:
//
//  * kOngoing — the paper's ongoing semantics: predicates restrict
//    tuple reference times (Sec. VIII split of conjunctive predicates).
//  * kAtReferenceTime — Clifford semantics: scans instantiate base
//    relations at the given reference time and all predicates evaluate
//    with fixed semantics.
#pragma once

#include <atomic>
#include <deque>
#include <memory>

#include "query/exec_context.h"
#include "query/plan.h"
#include "relation/tuple_batch.h"
#include "util/result.h"

namespace ongoingdb {

/// The semantics a physical operator tree evaluates under.
enum class ExecMode {
  kOngoing,          ///< ongoing semantics; result valid at every rt
  kAtReferenceTime,  ///< Clifford semantics at one fixed rt
};

/// A pull-based physical operator producing tuple batches.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// The compiled output schema (available before Open()).
  const Schema& schema() const { return schema_; }

  /// A short operator name for diagnostics and tests ("Scan",
  /// "IndexJoin", ...). Tests use it to assert which lowering Compile()
  /// picked; it carries no execution semantics.
  virtual const char* Name() const { return "Operator"; }

  /// Acquires operator state and (re)positions the stream at the start.
  virtual Status Open() = 0;

  /// Produces the next batch of result tuples (see the contract above).
  virtual Status Next(TupleBatch* out) = 0;

  /// Releases bulk state (build tables, materialized inputs). The
  /// operator may be reopened afterwards.
  virtual void Close() {}

  /// Non-null iff this operator streams an existing relation unchanged
  /// (an ongoing-mode scan). Consumers that materialize their input
  /// (join build sides, the root drain) borrow the relation directly
  /// instead of copying it batch by batch.
  virtual const OngoingRelation* BorrowedRelation() const { return nullptr; }

  /// Rebinds the lifecycle context this tree checks cooperatively,
  /// recursively through children. Compile() bakes `ctx` into every
  /// operator; a cached tree served under a new context (a materialized
  /// view refreshed by a different session/statement) is rebound with
  /// this instead of recompiled, so warm state that survives reopens —
  /// an index-NL join's shared IntervalIndex in particular — is kept.
  /// Only call between drains (not between Open and Close): per-query
  /// state such as memory charges is (re)initialized from the context
  /// inside Open(). Pure so a new operator cannot silently keep a stale
  /// context.
  virtual void RebindContext(QueryContext* ctx) = 0;

 protected:
  explicit PhysicalOperator(Schema schema) : schema_(std::move(schema)) {}

 private:
  Schema schema_;
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOperator>;

/// Lowers a logical plan into a physical operator tree. Absorbs the
/// optimizer's join-algorithm choice: JoinAlgorithm::kAuto resolves via
/// ResolveAutoJoinAlgorithm (query/optimizer.h) — cost-based between
/// index-nested-loop, hash and scan-nested-loop when an index-eligible
/// temporal conjunct exists (MatchIndexJoin + interval histograms),
/// hash/nested-loop by the key rule otherwise — the same rule as
/// ChooseJoinAlgorithms. Forcing kIndexNL on an ineligible join is a
/// compile error. A Filter(Scan) lowers to a scan that tests the
/// predicate on each stored tuple before copying it. `rt` is only
/// meaningful for kAtReferenceTime. A
/// non-null `ctx` is checked cooperatively at every batch boundary of
/// the compiled tree and must outlive it.
Result<PhysicalOpPtr> Compile(const PlanPtr& plan, ExecMode mode,
                              TimePoint rt = 0, QueryContext* ctx = nullptr);

// ---------------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------------

/// Degree-of-parallelism knobs for the morsel-driven parallel lowering.
/// workers == 1 (the default) is exactly the serial operator tree —
/// same operators, same allocation behavior.
struct ParallelOptions {
  /// Number of partition pipelines drained concurrently. Clamped to 1
  /// by the serial fallback below.
  size_t workers = 1;

  /// Tuples per morsel an exchange scan claims from the shared cursor.
  /// Small enough for dynamic load balancing, large enough that the
  /// atomic fetch_add amortizes to nothing.
  size_t morsel_size = 1024;

  /// Serial fallback threshold: when the plan's base relations hold
  /// fewer tuples than this in total, Compile() ignores `workers` and
  /// builds the serial tree (pipeline setup, thread handoff and the
  /// K-fold re-scan of repartitioned join inputs would dominate).
  /// Set to 0 to force parallel lowering regardless of input size
  /// (the equivalence tests do).
  size_t min_parallel_tuples = 4096;

  /// Capacity of the tuple batches the query drains through (the
  /// gather pool's batches in a parallel plan, the root drain's batch
  /// always). 0 means TupleBatch::kDefaultCapacity. Exposed as the
  /// sql_shell `SET batch_size = N;` knob, so results can be checked
  /// across batch boundaries interactively.
  size_t batch_size = 0;
};

/// The concrete batch capacity `options` asks for (0 = default).
inline size_t EffectiveBatchSize(const ParallelOptions& options) {
  return options.batch_size > 0 ? options.batch_size
                                : TupleBatch::kDefaultCapacity;
}

/// Shared coordination state of one parallel compilation: the atomic
/// morsel cursors the exchange scans pull from. One cursor per logical
/// scan node, shared by that scan's instances across all partition
/// pipelines. Reset() repositions every cursor at the start of a drain
/// round; the gather operator calls it inside its own Open().
class ExchangeState {
 public:
  struct MorselCursor {
    std::atomic<size_t> next{0};
  };

  MorselCursor* NewCursor() { return &cursors_.emplace_back(); }

  void Reset() {
    for (MorselCursor& c : cursors_) c.next.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }

  /// The drain-round counter Reset() bumps. Index-NL joins use it to
  /// validate their shared inner index's staleness fingerprint once per
  /// round instead of once per pipeline Open() (0 = never reset; always
  /// validate).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  std::deque<MorselCursor> cursors_;  // deque: stable addresses
  std::atomic<uint64_t> generation_{0};
};

/// Parallel-aware lowering: decides the effective worker count via
/// EffectiveWorkers (query/optimizer.h) and either returns the serial
/// tree (workers == 1 or small input) or the partition pipelines behind
/// a gather operator that drains them concurrently on the global
/// TaskScheduler. The returned operator keeps the serial pull contract:
/// Open/Next/Close from one consumer thread.
Result<PhysicalOpPtr> Compile(const PlanPtr& plan, ExecMode mode, TimePoint rt,
                              const ParallelOptions& options,
                              QueryContext* ctx = nullptr);

/// Open/drain/Close the operator tree into a materialized relation —
/// the compatibility bridge for the relation-in/relation-out API
/// (Execute, the relation-level joins). Scans short-circuit to a plain
/// relation copy. On error the tree is Close()d before the Status
/// returns (producer tasks joined, bulk state released); a non-null
/// `ctx` additionally charges the materialized result against the
/// query's memory budget while the drain runs. `batch_capacity` sizes
/// the drain batch (ParallelOptions::batch_size flows in here via the
/// executor).
Result<OngoingRelation> DrainToRelation(
    PhysicalOperator& op, QueryContext* ctx = nullptr,
    size_t batch_capacity = TupleBatch::kDefaultCapacity);

}  // namespace ongoingdb
