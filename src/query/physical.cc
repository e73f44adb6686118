#include "query/physical.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/interval_index.h"
#include "query/join.h"
#include "query/optimizer.h"
#include "storage/stats.h"
#include "util/failpoint.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ongoingdb {

namespace {

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

// The failpoint sites of the execution pipeline (util/failpoint.h; the
// site registry is documented in docs/DESIGN.md, "Query lifecycle").
// Disarmed sites cost one relaxed atomic load at the seam.
Failpoint& fp_exec_open = Failpoint::GetOrCreate("exec.open");
Failpoint& fp_exec_next = Failpoint::GetOrCreate("exec.next");
Failpoint& fp_exec_materialize = Failpoint::GetOrCreate("exec.materialize");
Failpoint& fp_gather_handoff = Failpoint::GetOrCreate("gather.handoff");
Failpoint& fp_index_build = Failpoint::GetOrCreate("index.build");
Failpoint& fp_repartition_route = Failpoint::GetOrCreate("repartition.route");

// The cooperative batch-boundary check every operator performs on
// Open() and at the top of each Next() call: the seam's failpoint,
// then the query's cancellation/deadline/budget state. Near-free when
// inactive — one relaxed load, and a null context skips entirely.
inline Status CheckLifecycle(QueryContext* ctx, Failpoint& fp) {
  ONGOINGDB_FAILPOINT(fp);
  return ctx != nullptr ? ctx->Check() : Status::OK();
}

// Materializes a physical input for a blocking consumer (join build
// side). Ongoing-mode scans are borrowed — no copy, exactly like the
// pre-batched joins keyed directly on the input relations; anything else
// is drained batch by batch into `owned`, moving each slot's storage
// out. The blocking loop is a lifecycle seam of its own: it checks the
// context per batch (a build over a large input must cancel without
// waiting for the first output batch) and charges the materialized
// tuples against the query's memory budget. On error the child is
// Close()d before the Status propagates, so a failed build never leaks
// an open subtree.
Status MaterializeInput(PhysicalOperator& child, TupleStore* owned,
                        const TupleStore** out, QueryContext* ctx,
                        MemoryCharge* charge) {
  if (const OngoingRelation* rel = child.BorrowedRelation()) {
    *out = &rel->tuples();
    return Status::OK();
  }
  owned->clear();
  if (Status st = child.Open(); !st.ok()) {
    // The join's Close() does not revisit a materialized input (this
    // function owns its teardown), so close the partially opened
    // subtree here — it may hold memory charges of its own.
    child.Close();
    return st;
  }
  Status st;
  TupleBatch batch;
  while (true) {
    st = CheckLifecycle(ctx, fp_exec_materialize);
    if (!st.ok()) break;
    st = child.Next(&batch);
    if (!st.ok() || batch.empty()) break;
    uint64_t bytes = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      bytes += ApproxTupleBytes(batch.tuple(i));
      owned->push_back(std::move(batch.tuple(i)));
    }
    st = charge->Add(bytes);
    if (!st.ok()) break;
  }
  child.Close();
  ONGOINGDB_RETURN_NOT_OK(st);
  *out = owned;
  return Status::OK();
}

// Emits joined tuples for candidate pairs directly into an output
// batch, evaluating the residual on the two stored tuples before
// anything is copied. The residual's pair atoms (query/join.h,
// PairPredicate) run on (lt, st) by resolved ordinal: in ongoing mode
// they restrict the pair's RT in a reused emitter buffer; under
// Clifford semantics they test at rt. Only a surviving pair claims a
// batch slot, so a rejected one copies nothing and allocates nothing.
// The claimed slot reuses its value vector and interval buffer, and the
// scalar remainder runs on it (PopLast un-claims it on rejection).
class BatchJoinEmitter {
 public:
  BatchJoinEmitter(const Schema& joined_schema, size_t left_arity,
                   const ExprPtr& residual, ExecMode mode, TimePoint rt)
      : joined_schema_(joined_schema),
        pair_(residual, joined_schema, left_arity,
              mode == ExecMode::kAtReferenceTime, rt),
        mode_(mode) {}

  // Appends the joined tuple for (lt, st) to *out unless the pair is
  // rejected. The caller guarantees the batch is not full.
  Status Emit(const Tuple& lt, const Tuple& st, TupleBatch* out) {
    if (mode_ == ExecMode::kAtReferenceTime) {
      // Clifford semantics: the inputs are instantiated, the residual
      // evaluates fixed at rt, and the result is valid at rt only
      // (trivial RT, like every instantiated tuple).
      ONGOINGDB_ASSIGN_OR_RETURN(bool keep, pair_.Holds(lt, st));
      if (!keep) return Status::OK();
      Tuple& slot = out->NextSlot();
      FillValues(lt, st, slot);
      if (pair_.remainder() != nullptr) {
        auto rest = pair_.RemainderHolds(joined_schema_, slot);
        if (!rest.ok() || !*rest) {
          out->PopLast();
          return rest.status();
        }
      }
      slot.mutable_rt() = all_;
      return Status::OK();
    }
    lt.rt().IntersectInto(st.rt(), &pair_rt_);
    if (pair_rt_.IsEmpty()) return Status::OK();
    ONGOINGDB_RETURN_NOT_OK(pair_.Restrict(lt, st, &pair_rt_, &rt_scratch_));
    if (pair_rt_.IsEmpty()) return Status::OK();
    Tuple& slot = out->NextSlot();
    FillValues(lt, st, slot);
    slot.mutable_rt() = pair_rt_;
    if (pair_.remainder() == nullptr) return Status::OK();
    Status rest = pair_.RestrictRemainder(joined_schema_, slot,
                                          &slot.mutable_rt(), &rt_scratch_);
    if (!rest.ok() || slot.rt().IsEmpty()) out->PopLast();
    return rest;
  }

 private:
  static void FillValues(const Tuple& lt, const Tuple& st, Tuple& slot) {
    std::vector<Value>& values = slot.mutable_values();
    values.reserve(lt.num_values() + st.num_values());
    for (const Value& v : lt.values()) values.push_back(v);
    for (const Value& v : st.values()) values.push_back(v);
  }

  const Schema& joined_schema_;
  PairPredicate pair_;
  ExecMode mode_;
  const IntervalSet all_ = IntervalSet::All();
  IntervalSet pair_rt_;  // the candidate pair's RT, before it is claimed
  IntervalSet rt_scratch_;
};

// Tuple-at-a-time view over a physical input for the streaming side of
// a join: borrows an ongoing-mode scan's relation outright, otherwise
// pulls batches from the child. Current() keeps returning the same
// tuple until Advance(), so operators that suspend emission mid-tuple
// re-read it on the next Next() call.
class TupleStream {
 public:
  Status Open(PhysicalOperator* child) {
    child_ = child;
    const OngoingRelation* rel = child->BorrowedRelation();
    borrowed_ = rel != nullptr ? &rel->tuples() : nullptr;
    if (borrowed_ == nullptr) {
      ONGOINGDB_RETURN_NOT_OK(child_->Open());
      batch_.Clear();
    }
    pos_ = 0;
    exhausted_ = false;
    return Status::OK();
  }

  // The current tuple, pulling the next batch once the current one is
  // consumed; nullptr when the stream is exhausted.
  Result<const Tuple*> Current() {
    if (borrowed_ != nullptr) {
      if (pos_ >= borrowed_->size()) return static_cast<const Tuple*>(nullptr);
      return &(*borrowed_)[pos_];
    }
    if (pos_ >= batch_.size()) {
      if (!exhausted_) {
        ONGOINGDB_RETURN_NOT_OK(child_->Next(&batch_));
        pos_ = 0;
        if (batch_.empty()) exhausted_ = true;
      }
      if (exhausted_) return static_cast<const Tuple*>(nullptr);
    }
    return &batch_.tuple(pos_);
  }

  void Advance() { ++pos_; }

  void Close() {
    if (borrowed_ == nullptr && child_ != nullptr) child_->Close();
  }

 private:
  PhysicalOperator* child_ = nullptr;
  const TupleStore* borrowed_ = nullptr;
  TupleBatch batch_;
  size_t pos_ = 0;
  bool exhausted_ = false;
};

// A flat, array-chained hash table over the build side's typed join
// keys. Three contiguous vectors replace the node-per-entry
// unordered_multiset the engine used before: bucket heads, an intrusive
// next-chain, and the cached 64-bit key hash per build tuple (probes
// compare hashes before touching the typed values). Building performs
// O(1) allocations total instead of one node per build tuple.
class JoinHashTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  void Build(const TupleStore& tuples,
             const std::vector<size_t>& key_indices) {
    const size_t n = tuples.size();
    hashes_.resize(n);
    next_.assign(n, kEnd);
    size_t buckets = 16;
    while (buckets < n * 2) buckets <<= 1;
    mask_ = buckets - 1;
    head_.assign(buckets, kEnd);
    size_t i = 0;
    for (const Tuple& t : tuples) hashes_[i++] = JoinKeyHash(t, key_indices);
    // Head insertion in reverse so every bucket chain enumerates build
    // tuples in input order.
    for (size_t i = n; i-- > 0;) {
      size_t b = hashes_[i] & mask_;
      next_[i] = head_[b];
      head_[b] = static_cast<uint32_t>(i);
    }
  }

  uint32_t First(size_t hash) const { return head_[hash & mask_]; }
  uint32_t Next(uint32_t entry) const { return next_[entry]; }
  size_t HashAt(uint32_t entry) const { return hashes_[entry]; }

  void Reset() {
    head_.clear();
    next_.clear();
    hashes_.clear();
    mask_ = 0;
  }

 private:
  std::vector<uint32_t> head_ = {kEnd};
  std::vector<uint32_t> next_;
  std::vector<size_t> hashes_;
  size_t mask_ = 0;
};

// ---------------------------------------------------------------------------
// Index access (docs/DESIGN.md, "Index access path")
// ---------------------------------------------------------------------------

// The IntervalIndex on an index-nested-loop join's inner side, shared
// by every operator instance of that join node (one per partition
// pipeline in a parallel plan; a MaterializedView's cached operator
// tree keeps it alive across Refresh() calls). Ensure() is the
// build-or-reuse decision: the indexed column is fingerprinted on every
// Open(), and the index is rebuilt only when the fingerprint no longer
// matches the one recorded at Build time — so repeated drains of an
// unmodified relation pay an O(n) bound sweep instead of the
// O(n log n) sort, and base-data modifications (TemporalInsert/Delete/
// Update, plain inserts) are picked up on the next Open(). Concurrent
// Ensure() calls from parallel pipeline Open()s serialize on the mutex;
// after the first (re)build the state is only read.
struct IndexState {
  IndexState(const OngoingRelation* relation, std::string column,
             size_t column_index, IntervalProbeOp op)
      : relation(relation),
        column(std::move(column)),
        column_index(column_index),
        op(op) {}

  // Immutable after construction; read lock-free.
  const OngoingRelation* relation;  // the indexed base relation
  std::string column;               // indexed attribute name
  size_t column_index;              // resolved ordinal on `relation`
  IntervalProbeOp op;               // probe op, indexed side's view

  Mutex mu;
  std::optional<IntervalIndex> index GUARDED_BY(mu);
  uint64_t validated_generation GUARDED_BY(mu) = 0;

  // Post-Ensure read surface. The index is guarded for the (re)build;
  // once a pipeline's own Ensure() returned OK for the current drain
  // round it is immutable until the next ExchangeState::Reset(), and
  // every reader's accesses are ordered after the build by the mu
  // acquire inside its own Ensure() call. The accessor opts out of the
  // analysis for exactly that protocol — callers must not touch it
  // before Ensure() succeeded.
  const IntervalIndex& index_after_ensure() const NO_THREAD_SAFETY_ANALYSIS {
    return *index;
  }

  // `generation` is the exchange's drain-round counter (0 when the
  // operator is serial, i.e. outside any exchange): the base data cannot
  // change mid-round, so only the round's first opener pays the O(n)
  // fingerprint sweep — the W-1 other pipeline Open()s return here
  // without touching the relation.
  Status Ensure(uint64_t generation) {
    MutexLock lock(mu);
    if (generation != 0 && generation == validated_generation) {
      return Status::OK();
    }
    ONGOINGDB_ASSIGN_OR_RETURN(
        uint64_t fp, IntervalIndex::ColumnFingerprint(*relation, column_index));
    if (!index.has_value() || index->fingerprint() != fp) {
      // The seam fires only when an actual (re)build runs — a warm,
      // fingerprint-current index passes an armed site untouched, which
      // is what lets the view tests prove a rebind did NOT rebuild.
      ONGOINGDB_FAILPOINT(fp_index_build);
      ONGOINGDB_ASSIGN_OR_RETURN(IntervalIndex built,
                                 IntervalIndex::Build(*relation, column));
      index = std::move(built);
    }
    validated_generation = generation;
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

// The positions [0, n) of an input one scan instance streams. In a
// parallel plan all instances of one logical scan share an atomic morsel
// cursor, and each claims the next unclaimed [begin, begin + morsel)
// range, so fast pipelines naturally take more morsels than slow ones
// (no static striping). A null cursor (a serial plan) makes the whole
// input one window. The shared cursor is repositioned by
// ExchangeState::Reset() once per drain round; Reset() here restarts
// only the local window.
class MorselWindow {
 public:
  MorselWindow(ExchangeState::MorselCursor* cursor, size_t morsel_size)
      : cursor_(cursor), morsel_size_(morsel_size) {}

  bool serial() const { return cursor_ == nullptr; }

  void Reset() {
    pos_ = end_ = 0;
    claimed_ = false;
  }

  // The next position of [0, n) to stream; false once none is left.
  bool Next(size_t n, size_t* pos) {
    if (pos_ >= end_ && !Claim(n)) return false;
    *pos = pos_++;
    return true;
  }

 private:
  bool Claim(size_t n) {
    if (cursor_ == nullptr) {
      if (claimed_) return false;
      claimed_ = true;
      pos_ = 0;
      end_ = n;
      return n > 0;
    }
    const size_t begin =
        cursor_->next.fetch_add(morsel_size_, std::memory_order_relaxed);
    if (begin >= n) return false;
    pos_ = begin;
    end_ = std::min(begin + morsel_size_, n);
    return true;
  }

  ExchangeState::MorselCursor* cursor_;
  size_t morsel_size_;
  size_t pos_ = 0, end_ = 0;
  bool claimed_ = false;
};

// Streams the positions [0, n) of a base relation through its morsel
// window: whole in a serial plan, this pipeline's share in a parallel
// one (the exchange scan). A scan that absorbed a Filter tests each
// stored tuple with the compiled predicate (query/join.h,
// PairPredicate) before it claims a batch slot, so a rejected tuple
// copies nothing; the remainder runs on the filled slot (PopLast
// un-claims a rejected slot). Only the serial ongoing-mode scan without
// a predicate exposes BorrowedRelation(); an exchange instance streams
// just its share of the relation.
class ScanOp final : public PhysicalOperator {
 public:
  ScanOp(const OngoingRelation* relation, const ExprPtr& predicate,
         ExecMode mode, TimePoint rt, ExchangeState::MorselCursor* cursor,
         size_t morsel_size, QueryContext* ctx)
      : PhysicalOperator(mode == ExecMode::kOngoing
                             ? relation->schema()
                             : relation->schema().Instantiated()),
        relation_(relation),
        filtered_(predicate != nullptr),
        pred_(predicate, relation->schema(),
              mode == ExecMode::kAtReferenceTime, rt),
        mode_(mode),
        rt_(rt),
        window_(cursor, morsel_size),
        ctx_(ctx) {}

  const char* Name() const override { return "Scan"; }

  Status Open() override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    window_.Reset();
    return Status::OK();
  }

  Status Next(TupleBatch* out) override {
    out->Clear();
    const TupleStore& tuples = relation_->tuples();
    const size_t n = tuples.size();
    // The batch fills across scanned positions, with one lifecycle check
    // per batch capacity of them: a predicate that rejects every tuple
    // still cancels between scanned batches, as a Filter over its
    // child's batches would.
    while (true) {
      ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_next));
      size_t i = 0;
      for (size_t scanned = 0; scanned < out->capacity(); ++scanned) {
        if (!window_.Next(n, &i)) return Status::OK();
        ONGOINGDB_RETURN_NOT_OK(Emit(tuples[i], out));
        if (out->full()) return Status::OK();
      }
    }
  }

  const OngoingRelation* BorrowedRelation() const override {
    return mode_ == ExecMode::kOngoing && !filtered_ && window_.serial()
               ? relation_
               : nullptr;
  }

  void RebindContext(QueryContext* ctx) override { ctx_ = ctx; }

 private:
  // Appends stored tuple `t` to *out unless the predicate rejects it. In
  // kAtReferenceTime mode this is the bind operator ||R||rt: a tuple
  // whose RT does not contain rt is dropped, the rest are instantiated
  // with trivial reference time.
  Status Emit(const Tuple& t, TupleBatch* out) {
    if (mode_ == ExecMode::kAtReferenceTime) {
      if (!t.BelongsAt(rt_)) return Status::OK();
      ONGOINGDB_ASSIGN_OR_RETURN(bool keep, pred_.Holds(t));
      if (!keep) return Status::OK();
      Tuple& slot = out->NextSlot();
      std::vector<Value>& values = slot.mutable_values();
      values.reserve(t.num_values());
      for (const Value& v : t.values()) values.push_back(v.Instantiate(rt_));
      slot.mutable_rt() = all_;
      if (pred_.remainder() == nullptr) return Status::OK();
      Result<bool> rest = pred_.RemainderHolds(schema(), slot);
      if (!rest.ok() || !*rest) out->PopLast();
      return rest.status();
    }
    // The fixed atoms test the stored tuple first, and the ongoing atoms
    // restrict its RT in a reused buffer: only a tuple that survives
    // them claims a slot, swaps the buffer in and has its values copied.
    ONGOINGDB_RETURN_NOT_OK(pred_.Restrict(t, &rt_buf_, &rt_scratch_));
    if (rt_buf_.IsEmpty()) return Status::OK();
    Tuple& slot = out->NextSlot();
    std::swap(slot.mutable_rt(), rt_buf_);
    slot.mutable_values() = t.values();
    if (pred_.remainder() == nullptr) return Status::OK();
    Status st = pred_.RestrictRemainder(schema(), slot, &slot.mutable_rt(),
                                        &rt_scratch_);
    if (!st.ok() || slot.rt().IsEmpty()) out->PopLast();
    return st;
  }

  const OngoingRelation* relation_;
  bool filtered_;
  PairPredicate pred_;
  ExecMode mode_;
  TimePoint rt_;
  MorselWindow window_;
  QueryContext* ctx_;
  const IntervalSet all_ = IntervalSet::All();
  IntervalSet rt_buf_;  // a stored tuple's RT, before it claims a slot
  IntervalSet rt_scratch_;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

// A selection over a computed input; a Filter directly over a base
// relation is absorbed by its ScanOp. Tests each tuple of the child's
// batch in place with the compiled predicate (query/join.h,
// PairPredicate): in ongoing mode the fixed conjuncts are a WHERE filter
// and the ongoing ones restrict the tuple's RT (Sec. VIII); in
// kAtReferenceTime mode every conjunct evaluates fixed at rt. Survivors
// are compacted to the batch prefix in order.
class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(PhysicalOpPtr child, const ExprPtr& predicate, ExecMode mode,
           TimePoint rt, QueryContext* ctx)
      : PhysicalOperator(child->schema()),
        child_(std::move(child)),
        pred_(predicate, schema(), mode == ExecMode::kAtReferenceTime, rt),
        mode_(mode),
        ctx_(ctx) {}

  const char* Name() const override { return "Filter"; }

  Status Open() override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    return child_->Open();
  }

  Status Next(TupleBatch* out) override {
    // Filters compact the child's batch in place; they loop until at
    // least one tuple survives (never an empty batch mid-stream) — so
    // the lifecycle check sits inside the loop: a selective filter over
    // a large input must cancel between child batches, not only once an
    // output batch finally fills.
    while (true) {
      ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_next));
      ONGOINGDB_RETURN_NOT_OK(child_->Next(out));
      if (out->empty()) return Status::OK();
      size_t kept = 0;
      for (size_t i = 0; i < out->size(); ++i) {
        ONGOINGDB_ASSIGN_OR_RETURN(bool keep, Keep(out->tuple(i)));
        if (!keep) continue;
        if (kept != i) std::swap(out->tuple(kept), out->tuple(i));
        ++kept;
      }
      out->Truncate(kept);
      if (!out->empty()) return Status::OK();
    }
  }

  void Close() override { child_->Close(); }

  void RebindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->RebindContext(ctx);
  }

 private:
  // The predicate on one tuple of the child's batch; in ongoing mode a
  // kept tuple's RT is restricted in place.
  Result<bool> Keep(Tuple& t) {
    if (mode_ == ExecMode::kAtReferenceTime) {
      ONGOINGDB_ASSIGN_OR_RETURN(bool keep, pred_.Holds(t));
      if (!keep) return false;
      return pred_.RemainderHolds(schema(), t);
    }
    ONGOINGDB_RETURN_NOT_OK(pred_.Restrict(t, &rt_buf_, &rt_scratch_));
    if (rt_buf_.IsEmpty()) return false;
    ONGOINGDB_RETURN_NOT_OK(
        pred_.RestrictRemainder(schema(), t, &rt_buf_, &rt_scratch_));
    if (rt_buf_.IsEmpty()) return false;
    std::swap(t.mutable_rt(), rt_buf_);
    return true;
  }

  PhysicalOpPtr child_;
  PairPredicate pred_;
  ExecMode mode_;
  QueryContext* ctx_;
  IntervalSet rt_buf_;
  IntervalSet rt_scratch_;
};

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

class ProjectOp final : public PhysicalOperator {
 public:
  ProjectOp(PhysicalOpPtr child, std::vector<size_t> indices,
            QueryContext* ctx)
      : PhysicalOperator(child->schema().Project(indices)),
        child_(std::move(child)),
        indices_(std::move(indices)),
        ctx_(ctx) {}

  Status Open() override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    return child_->Open();
  }

  Status Next(TupleBatch* out) override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_next));
    ONGOINGDB_RETURN_NOT_OK(child_->Next(out));
    for (size_t i = 0; i < out->size(); ++i) {
      Tuple& t = out->tuple(i);
      scratch_.clear();
      scratch_.reserve(indices_.size());
      for (size_t idx : indices_) scratch_.push_back(t.value(idx));
      // Swap, not assign: the slot's old vector becomes the next
      // tuple's scratch, so capacities circulate instead of freeing.
      std::swap(t.mutable_values(), scratch_);
    }
    return Status::OK();
  }

  void Close() override { child_->Close(); }

  void RebindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->RebindContext(ctx);
  }

 private:
  PhysicalOpPtr child_;
  std::vector<size_t> indices_;
  QueryContext* ctx_;
  std::vector<Value> scratch_;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// Hash join: blocking build over the left input, streaming probe over
// the right. Emission suspends mid-chain when the output batch fills and
// resumes from the saved (probe position, chain entry) on the next call.
class HashJoinOp final : public PhysicalOperator {
 public:
  HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, EquiJoinPlan plan,
             ExecMode mode, TimePoint rt, QueryContext* ctx)
      : PhysicalOperator(plan.joined),
        left_(std::move(left)),
        right_(std::move(right)),
        left_indices_(std::move(plan.left_indices)),
        right_indices_(std::move(plan.right_indices)),
        emitter_(schema(), left_->schema().num_attributes(), plan.residual,
                 mode, rt),
        ctx_(ctx) {}

  Status Open() override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    charge_.Init(ctx_);
    ONGOINGDB_RETURN_NOT_OK(
        MaterializeInput(*left_, &owned_build_, &build_, ctx_, &charge_));
    table_.Build(*build_, left_indices_);
    ONGOINGDB_RETURN_NOT_OK(probe_.Open(right_.get()));
    chain_valid_ = false;
    return Status::OK();
  }

  // Candidate pairs through the emitter; the suspension state is
  // preserved across calls.
  Status Next(TupleBatch* out) override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_next));
    out->Clear();
    while (true) {
      ONGOINGDB_ASSIGN_OR_RETURN(const Tuple* pt, probe_.Current());
      if (pt == nullptr) return Status::OK();
      if (!chain_valid_) {
        probe_hash_ = JoinKeyHash(*pt, right_indices_);
        chain_ = table_.First(probe_hash_);
        chain_valid_ = true;
      }
      while (chain_ != JoinHashTable::kEnd) {
        const uint32_t entry = chain_;
        chain_ = table_.Next(chain_);
        if (table_.HashAt(entry) != probe_hash_) continue;
        const Tuple& bt = (*build_)[entry];
        if (!JoinKeysEqual(bt, left_indices_, *pt, right_indices_)) continue;
        ONGOINGDB_RETURN_NOT_OK(emitter_.Emit(bt, *pt, out));
        if (out->full()) return Status::OK();
      }
      probe_.Advance();
      chain_valid_ = false;
    }
  }

  void Close() override {
    owned_build_.clear();
    table_.Reset();
    probe_.Close();
    charge_.Release();
  }

  void RebindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->RebindContext(ctx);
    right_->RebindContext(ctx);
  }

 private:
  PhysicalOpPtr left_, right_;
  std::vector<size_t> left_indices_, right_indices_;
  BatchJoinEmitter emitter_;
  QueryContext* ctx_;
  MemoryCharge charge_;
  // Build state.
  TupleStore owned_build_;
  const TupleStore* build_ = nullptr;
  JoinHashTable table_;
  // Probe state: the stream position plus the suspended chain cursor.
  TupleStream probe_;
  size_t probe_hash_ = 0;
  uint32_t chain_ = JoinHashTable::kEnd;
  bool chain_valid_ = false;
};

// Nested-loop join: blocking materialization of the right (inner) input,
// streaming over the left (outer) — the historical emission order. The
// full join predicate is the emitter's residual.
class NestedLoopJoinOp final : public PhysicalOperator {
 public:
  NestedLoopJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, Schema joined,
                   ExprPtr predicate, ExecMode mode, TimePoint rt,
                   QueryContext* ctx)
      : PhysicalOperator(std::move(joined)),
        left_(std::move(left)),
        right_(std::move(right)),
        emitter_(schema(), left_->schema().num_attributes(), predicate, mode,
                 rt),
        ctx_(ctx) {}

  Status Open() override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    charge_.Init(ctx_);
    ONGOINGDB_RETURN_NOT_OK(
        MaterializeInput(*right_, &owned_inner_, &inner_, ctx_, &charge_));
    ONGOINGDB_RETURN_NOT_OK(outer_.Open(left_.get()));
    inner_pos_ = 0;
    return Status::OK();
  }

  Status Next(TupleBatch* out) override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_next));
    out->Clear();
    while (true) {
      ONGOINGDB_ASSIGN_OR_RETURN(const Tuple* lt, outer_.Current());
      if (lt == nullptr) return Status::OK();
      while (inner_pos_ < inner_->size()) {
        const Tuple& st = (*inner_)[inner_pos_++];
        ONGOINGDB_RETURN_NOT_OK(emitter_.Emit(*lt, st, out));
        if (out->full()) return Status::OK();
      }
      outer_.Advance();
      inner_pos_ = 0;
    }
  }

  void Close() override {
    owned_inner_.clear();
    outer_.Close();
    charge_.Release();
  }

  void RebindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->RebindContext(ctx);
    right_->RebindContext(ctx);
  }

 private:
  PhysicalOpPtr left_, right_;
  BatchJoinEmitter emitter_;
  QueryContext* ctx_;
  MemoryCharge charge_;
  TupleStore owned_inner_;
  const TupleStore* inner_ = nullptr;
  TupleStream outer_;
  size_t inner_pos_ = 0;
};

// Index-nested-loop join: streams the outer (left) input and, per outer
// tuple, probes the shared IntervalIndex on the inner base relation
// with the tuple's conservative interval bounds instead of scanning the
// whole inner side. The candidate list is a superset of the matching
// inner tuples at every reference time (hence also of the Clifford
// answer at the one probed rt), and the *full* join predicate is the
// emitter's residual — so the result equals the nested-loop lowering in
// both execution modes by construction. Candidates are fetched through
// the zero-allocation CandidatesInto reuse API: steady state performs
// no per-probe heap allocation. In a parallel plan the outer side is
// morsel-split (the compiled outer is an exchange scan subtree) while
// all partition instances share one immutable inner index — unlike the
// nested-loop lowering's per-partition inner copies.
class IndexJoinOp final : public PhysicalOperator {
 public:
  IndexJoinOp(PhysicalOpPtr outer, std::shared_ptr<IndexState> state,
              size_t outer_column_index, Schema joined, ExprPtr predicate,
              ExecMode mode, TimePoint rt,
              std::shared_ptr<ExchangeState> exchange, QueryContext* ctx)
      : PhysicalOperator(std::move(joined)),
        outer_(std::move(outer)),
        state_(std::move(state)),
        outer_column_index_(outer_column_index),
        mode_(mode),
        rt_(rt),
        exchange_(std::move(exchange)),
        emitter_(schema(), outer_->schema().num_attributes(), predicate, mode,
                 rt),
        ctx_(ctx) {}

  const char* Name() const override { return "IndexJoin"; }

  Status Open() override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    ONGOINGDB_RETURN_NOT_OK(
        state_->Ensure(exchange_ != nullptr ? exchange_->generation() : 0));
    ONGOINGDB_RETURN_NOT_OK(outer_stream_.Open(outer_.get()));
    cands_valid_ = false;
    cand_pos_ = 0;
    return Status::OK();
  }

  Status Next(TupleBatch* out) override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_next));
    out->Clear();
    const TupleStore& inner = state_->relation->tuples();
    while (true) {
      ONGOINGDB_ASSIGN_OR_RETURN(const Tuple* lt, outer_stream_.Current());
      if (lt == nullptr) return Status::OK();
      if (!cands_valid_) {
        state_->index_after_ensure().CandidatesInto(
            state_->op, IntervalBoundsOfValue(lt->value(outer_column_index_)),
            &cands_);
        cand_pos_ = 0;
        cands_valid_ = true;
      }
      while (cand_pos_ < cands_.size()) {
        const Tuple* st = &inner[cands_[cand_pos_++]];
        if (mode_ == ExecMode::kAtReferenceTime) {
          // The inner side bypasses a scan operator, so the bind
          // operator ||R||rt applies here: drop tuples absent at rt and
          // instantiate the rest (into a reused scratch tuple).
          if (!st->BelongsAt(rt_)) continue;
          std::vector<Value>& values = inner_scratch_.mutable_values();
          values.clear();
          values.reserve(st->num_values());
          for (const Value& v : st->values()) {
            values.push_back(v.Instantiate(rt_));
          }
          inner_scratch_.mutable_rt() = all_;
          st = &inner_scratch_;
        }
        ONGOINGDB_RETURN_NOT_OK(emitter_.Emit(*lt, *st, out));
        if (out->full()) return Status::OK();
      }
      outer_stream_.Advance();
      cands_valid_ = false;
    }
  }

  void Close() override { outer_stream_.Close(); }

  void RebindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    outer_->RebindContext(ctx);
  }

 private:
  PhysicalOpPtr outer_;
  std::shared_ptr<IndexState> state_;
  size_t outer_column_index_;
  ExecMode mode_;
  TimePoint rt_;
  std::shared_ptr<ExchangeState> exchange_;
  BatchJoinEmitter emitter_;
  QueryContext* ctx_;
  const IntervalSet all_ = IntervalSet::All();
  // Probe state: the outer stream position plus the suspended candidate
  // cursor; cands_ is reused across probes (CandidatesInto contract).
  TupleStream outer_stream_;
  std::vector<size_t> cands_;
  size_t cand_pos_ = 0;
  bool cands_valid_ = false;
  Tuple inner_scratch_;
};

// ---------------------------------------------------------------------------
// Parallel operators (morsel-driven execution, docs/DESIGN.md "Parallel
// execution"). A parallel plan is K self-contained partition pipelines
// whose streams are disjoint and together equal the serial result:
//
//  * Scan instances share a morsel cursor per plan node, so all
//    pipelines pull morsels of one input (data-level load balancing) —
//    the exchange scan;
//  * Repartition routes a join input's tuples to the partition their
//    key hash selects, so key-driven joins build and probe
//    per-partition tables;
//  * Gather drains the pipelines concurrently on the global
//    TaskScheduler and funnels their batches to the single consumer.
//
// Pipelines share no mutable state besides the morsel cursors and the
// index states (built under their mutex, read-only afterwards); every
// pipeline fills batches from its own arena (the exchange's batch
// pool), and Value's refcounted string payloads make the cross-thread
// tuple copies safe (relation/value.h).
// ---------------------------------------------------------------------------

// Repartition: filters its input down to the tuples whose typed
// join-key hash routes to this partition (JoinKeyPartition). A
// parallel plan lowers one serial copy of the join input per
// partition and wraps it in a Repartition, so the per-partition
// build/probe pipelines are disjoint (a key routes to exactly one
// partition) and complete (matching tuples share a key, hence a hash,
// hence a partition). Ongoing-mode scans are borrowed: the common case
// — a join directly over base relations — routes straight off the
// shared read-only relation without staging batches first.
class RepartitionOp final : public PhysicalOperator {
 public:
  RepartitionOp(PhysicalOpPtr child, std::vector<size_t> key_indices,
                size_t partition, size_t num_partitions, QueryContext* ctx)
      : PhysicalOperator(child->schema()),
        child_(std::move(child)),
        key_indices_(std::move(key_indices)),
        partition_(partition),
        num_partitions_(num_partitions),
        ctx_(ctx) {}

  Status Open() override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    const OngoingRelation* rel = child_->BorrowedRelation();
    borrowed_ = rel != nullptr ? &rel->tuples() : nullptr;
    pos_ = 0;
    exhausted_ = false;
    if (borrowed_ == nullptr) {
      ONGOINGDB_RETURN_NOT_OK(child_->Open());
      in_.Clear();
    }
    return Status::OK();
  }

  Status Next(TupleBatch* out) override {
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_next));
    ONGOINGDB_FAILPOINT(fp_repartition_route);
    out->Clear();
    if (borrowed_ != nullptr) {
      // Borrowing implies an ongoing-mode scan, so the copy is the
      // plain ongoing emission; assignment reuses the slot's buffers.
      while (pos_ < borrowed_->size() && !out->full()) {
        const Tuple& t = (*borrowed_)[pos_++];
        if (Mine(t)) out->NextSlot() = t;
      }
      return Status::OK();
    }
    while (!out->full()) {
      if (pos_ >= in_.size()) {
        if (exhausted_) break;
        ONGOINGDB_RETURN_NOT_OK(child_->Next(&in_));
        pos_ = 0;
        if (in_.empty()) {
          exhausted_ = true;
          break;
        }
      }
      Tuple& t = in_.tuple(pos_++);
      if (!Mine(t)) continue;
      // Swap, not copy: the kept tuple's storage moves to the output
      // slot and the slot's recycled storage flows back into the
      // child's batch arena.
      std::swap(out->NextSlot(), t);
    }
    return Status::OK();
  }

  void Close() override {
    if (borrowed_ == nullptr) child_->Close();
  }

  void RebindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->RebindContext(ctx);
  }

 private:
  bool Mine(const Tuple& t) const {
    return JoinKeyPartition(JoinKeyHash(t, key_indices_), num_partitions_) ==
           partition_;
  }

  PhysicalOpPtr child_;
  std::vector<size_t> key_indices_;
  size_t partition_;
  size_t num_partitions_;
  QueryContext* ctx_;
  const TupleStore* borrowed_ = nullptr;
  TupleBatch in_;
  size_t pos_ = 0;
  bool exhausted_ = false;
};

// Gather: the exchange root. Open() launches one producer task per
// partition pipeline on the global TaskScheduler; each producer drains
// its pipeline into batches taken from a bounded shared pool (the
// pool's size is the exchange's backpressure: producers block when the
// consumer falls behind) and queues them, order-insensitive. Next()
// hands queued batches to the consumer by swapping tuple slots — O(1)
// per tuple, and the consumer's recycled slot storage flows back into
// the pool. The first pipeline error cancels the remaining producers
// and surfaces from Next().
class GatherOp final : public PhysicalOperator {
 public:
  GatherOp(std::vector<PhysicalOpPtr> pipelines,
           std::shared_ptr<ExchangeState> exchange, size_t batch_capacity,
           QueryContext* ctx)
      // Guard the schema deref: an (ill-formed) empty pipeline vector
      // must not crash the constructor — the operator then streams an
      // empty result over an empty schema.
      : PhysicalOperator(pipelines.empty() ? Schema()
                                           : pipelines.front()->schema()),
        pipelines_(std::move(pipelines)),
        exchange_(std::move(exchange)),
        batch_capacity_(batch_capacity),
        ctx_(ctx) {}

  ~GatherOp() override { CancelAndJoin(); }

  Status Open() override {
    CancelAndJoin();  // tolerate reopen without an intervening Close
    ONGOINGDB_RETURN_NOT_OK(CheckLifecycle(ctx_, fp_exec_open));
    exchange_->Reset();
    {
      MutexLock lock(mu_);
      error_ = Status::OK();
      cancelled_ = false;
      producing_ = pipelines_.size();
      ready_.clear();
      free_.clear();
      current_.reset();
      current_pos_ = 0;
      // Two in-flight batches per producer: one being filled, one
      // queued or being consumed.
      for (size_t i = 0; i < 2 * pipelines_.size(); ++i) {
        free_.emplace_back(batch_capacity_);
      }
    }
    started_ = true;
    for (PhysicalOpPtr& p : pipelines_) {
      group_.Spawn([this, op = p.get()] { Produce(op); });
    }
    return Status::OK();
  }

  Status Next(TupleBatch* out) override {
    // The consumer-side lifecycle check. On a lifecycle error the
    // producers are stopped and joined *before* the Status surfaces —
    // the root-level guarantee that no task outlives the query. The
    // producers also observe the context inside their own pipelines, so
    // whichever side notices first, the error path converges here.
    if (Status st = CheckLifecycle(ctx_, fp_exec_next); !st.ok()) {
      CancelAndJoin();
      return st;
    }
    out->Clear();
    while (true) {
      if (current_.has_value()) {
        while (current_pos_ < current_->size() && !out->full()) {
          std::swap(out->NextSlot(), current_->tuple(current_pos_++));
        }
        if (current_pos_ >= current_->size()) {
          Recycle(std::move(*current_));
          current_.reset();
        }
        // A partial batch is fine mid-stream; only empty means "done".
        if (!out->empty()) return Status::OK();
      }
      Status failed;  // non-OK once a producer error was collected
      {
        MutexLock lock(mu_);
        while (error_.ok() && ready_.empty() && producing_ > 0) {
          consumer_cv_.Wait(mu_);
        }
        if (!error_.ok()) {
          failed = error_;
          cancelled_ = true;
          producer_cv_.NotifyAll();
          while (producing_ > 0) consumer_cv_.Wait(mu_);
        } else if (ready_.empty()) {
          return Status::OK();  // all producers done
        } else {
          current_.emplace(std::move(ready_.front()));
          ready_.pop_front();
          current_pos_ = 0;
        }
      }
      if (!failed.ok()) {
        group_.Wait();  // off the lock: producers' completion lambdas lock
        return failed;
      }
    }
  }

  void Close() override { CancelAndJoin(); }

  void RebindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    for (PhysicalOpPtr& p : pipelines_) p->RebindContext(ctx);
  }

 private:
  void Produce(PhysicalOperator* pipeline) {
    Status st = pipeline->Open();
    if (st.ok()) {
      while (true) {
        std::optional<TupleBatch> batch = AcquireFree();
        if (!batch.has_value()) break;  // cancelled
        st = pipeline->Next(&*batch);
        if (st.ok() && !batch->empty() && fp_gather_handoff.ShouldFail()) {
          st = fp_gather_handoff.Fail();
        }
        if (!st.ok() || batch->empty()) {
          Recycle(std::move(*batch));
          break;
        }
        {
          MutexLock lock(mu_);
          ready_.push_back(std::move(*batch));
        }
        consumer_cv_.NotifyOne();
      }
    }
    // Close unconditionally — also after a failed Open(): a partially
    // opened pipeline (say, a join whose build side materialized before
    // the probe side failed) holds bulk state that must be released.
    pipeline->Close();
    MutexLock lock(mu_);
    if (!st.ok() && error_.ok()) error_ = st;
    --producing_;
    consumer_cv_.NotifyAll();
  }

  std::optional<TupleBatch> AcquireFree() {
    MutexLock lock(mu_);
    while (!cancelled_ && free_.empty()) producer_cv_.Wait(mu_);
    if (cancelled_) return std::nullopt;
    TupleBatch batch = std::move(free_.front());
    free_.pop_front();
    return batch;
  }

  void Recycle(TupleBatch batch) {
    batch.Clear();
    {
      MutexLock lock(mu_);
      free_.push_back(std::move(batch));
    }
    producer_cv_.NotifyOne();
  }

  // Stops the producers and waits for them; safe to call repeatedly.
  void CancelAndJoin() {
    if (!started_) return;
    {
      MutexLock lock(mu_);
      cancelled_ = true;
    }
    producer_cv_.NotifyAll();
    group_.Wait();
    started_ = false;
    {
      // The producers are joined, but the analysis still wants the
      // pool teardown under the capability that guards it.
      MutexLock lock(mu_);
      ready_.clear();
      free_.clear();
    }
    current_.reset();
  }

  std::vector<PhysicalOpPtr> pipelines_;
  std::shared_ptr<ExchangeState> exchange_;
  size_t batch_capacity_;
  QueryContext* ctx_;
  TaskGroup group_;
  Mutex mu_;
  CondVar producer_cv_, consumer_cv_;
  std::deque<TupleBatch> ready_ GUARDED_BY(mu_), free_ GUARDED_BY(mu_);
  Status error_ GUARDED_BY(mu_);
  size_t producing_ GUARDED_BY(mu_) = 0;
  bool cancelled_ GUARDED_BY(mu_) = false;
  // Consumer-side state; touched only by the consumer thread.
  bool started_ = false;
  std::optional<TupleBatch> current_;
  size_t current_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

// Per-compilation state of a lowering. A serial lowering has no
// exchange. A parallel one (CompilePartitions) lowers the plan once per
// partition pipeline against one state, so that the instances of a scan
// node in all pipelines share its morsel cursor and those of an
// index-NL join share its IndexState.
struct LowerState {
  QueryContext* ctx = nullptr;
  std::shared_ptr<ExchangeState> exchange;  // null: a serial lowering
  size_t morsel_size = 0;
  size_t num_partitions = 1;
  std::unordered_map<const PlanNode*, ExchangeState::MorselCursor*> cursors;
  std::unordered_map<const PlanNode*, std::shared_ptr<IndexState>> indexes;
  // Memoized kAuto resolutions: the cost gate samples histograms and
  // key pairs, which is deterministic but not free — one resolution per
  // join node per compilation, not one per partition pipeline.
  std::unordered_map<const PlanNode*, JoinAlgorithm> join_algorithms;

  // The node's shared morsel cursor; null (the whole input is one
  // window) in a serial lowering.
  ExchangeState::MorselCursor* CursorFor(const PlanNode* node) {
    if (exchange == nullptr) return nullptr;
    auto [it, inserted] = cursors.try_emplace(node, nullptr);
    if (inserted) it->second = exchange->NewCursor();
    return it->second;
  }

  // The node's IndexState: built once and shared by all partition
  // pipelines of a parallel plan, private to its operator in a serial
  // one (where it revalidates on every Open()).
  std::shared_ptr<IndexState> IndexFor(const PlanNode* node,
                                       const IndexJoinInfo& info) {
    std::shared_ptr<IndexState>& index = indexes[node];
    if (index == nullptr || exchange == nullptr) {
      index = std::make_shared<IndexState>(info.inner, info.inner_column,
                                           info.inner_column_index, info.op);
    }
    return index;
  }

  // The concrete algorithm `node` lowers to. kAuto resolves cost-based
  // via ResolveAutoJoinAlgorithm (histograms + MatchIndexJoin); a forced
  // algorithm passes through unchanged.
  Result<JoinAlgorithm> AlgorithmFor(const JoinNode& node, const Schema& left,
                                     const Schema& right) {
    if (node.algorithm() != JoinAlgorithm::kAuto) return node.algorithm();
    if (auto it = join_algorithms.find(&node); it != join_algorithms.end()) {
      return it->second;
    }
    ONGOINGDB_ASSIGN_OR_RETURN(JoinAlgorithm algorithm,
                               ResolveAutoJoinAlgorithm(node, left, right));
    join_algorithms.emplace(&node, algorithm);
    return algorithm;
  }
};

// Lowers `plan` into the operator tree of partition pipeline `partition`
// — the one lowering of every plan node. A serial tree is the
// one-partition case without an exchange: scans stream the whole
// relation and stay borrowable, index states are private, and key joins
// are not repartitioned. In a parallel plan scans pull morsels of their
// input from cursors shared across the pipelines, and index-NL joins
// share one inner index. A join input every pipeline
// evaluates in full — both inputs of a key join, which RepartitionOp
// then filters down to the partition's keys, and a nested-loop inner —
// is lowered as a serial tree of its own per pipeline. The partition
// streams are disjoint and complete by construction (see the operator
// comments above).
Result<PhysicalOpPtr> Lower(const PlanPtr& plan, ExecMode mode, TimePoint rt,
                            size_t partition, LowerState* state) {
  QueryContext* ctx = state->ctx;
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto* node = static_cast<const ScanNode*>(plan.get());
      return PhysicalOpPtr(std::make_unique<ScanOp>(
          &node->relation(), nullptr, mode, rt, state->CursorFor(node),
          state->morsel_size, ctx));
    }
    case PlanKind::kFilter: {
      const auto* node = static_cast<const FilterNode*>(plan.get());
      // A Filter(Scan) lowers to a scan that tests the predicate itself
      // (the paper's selection, Sec. VIII); a cold interval index would
      // pay an O(n) fingerprint and an O(n log n) build before its first
      // probe (docs/DESIGN.md, "Index access path").
      if (node->child()->kind() == PlanKind::kScan) {
        const auto* scan = static_cast<const ScanNode*>(node->child().get());
        return PhysicalOpPtr(std::make_unique<ScanOp>(
            &scan->relation(), node->predicate(), mode, rt,
            state->CursorFor(node), state->morsel_size, ctx));
      }
      ONGOINGDB_ASSIGN_OR_RETURN(
          PhysicalOpPtr child,
          Lower(node->child(), mode, rt, partition, state));
      return PhysicalOpPtr(std::make_unique<FilterOp>(
          std::move(child), node->predicate(), mode, rt, ctx));
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(
          PhysicalOpPtr child,
          Lower(node->child(), mode, rt, partition, state));
      std::vector<size_t> indices;
      indices.reserve(node->names().size());
      for (const std::string& name : node->names()) {
        ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, child->schema().IndexOf(name));
        indices.push_back(idx);
      }
      return PhysicalOpPtr(std::make_unique<ProjectOp>(
          std::move(child), std::move(indices), ctx));
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      // Algorithm choice and key extraction run on the inputs'
      // mode-specific output schemas, which equal the physical schemas
      // of their lowerings. In Clifford mode every attribute
      // instantiates, so equality on formerly ongoing attributes becomes
      // a usable key — matching the paper's observation that PostgreSQL
      // hash-joins Clifford's instantiated relations (Fig. 11).
      ONGOINGDB_ASSIGN_OR_RETURN(Schema left_schema,
                                 OutputSchema(node->left()));
      ONGOINGDB_ASSIGN_OR_RETURN(Schema right_schema,
                                 OutputSchema(node->right()));
      if (mode == ExecMode::kAtReferenceTime) {
        left_schema = left_schema.Instantiated();
        right_schema = right_schema.Instantiated();
      }
      ONGOINGDB_ASSIGN_OR_RETURN(
          JoinAlgorithm algorithm,
          state->AlgorithmFor(*node, left_schema, right_schema));
      if (algorithm == JoinAlgorithm::kIndexNL) {
        // Forcing kIndexNL on an ineligible join is a compile error, not
        // a silent fallback.
        std::optional<IndexJoinInfo> info =
            MatchIndexJoin(*node, left_schema, right_schema);
        if (!info.has_value()) {
          return Status::InvalidArgument(
              "JoinAlgorithm::kIndexNL requires an overlaps/before/meets "
              "conjunct between interval columns of the two inputs, with the "
              "inner (right) input a base-relation scan");
        }
        ONGOINGDB_ASSIGN_OR_RETURN(
            PhysicalOpPtr outer,
            Lower(node->left(), mode, rt, partition, state));
        Schema joined = left_schema.Concat(right_schema, node->left_prefix(),
                                           node->right_prefix());
        return PhysicalOpPtr(std::make_unique<IndexJoinOp>(
            std::move(outer), state->IndexFor(node, *info),
            info->outer_column_index, std::move(joined), node->predicate(),
            mode, rt, state->exchange, ctx));
      }
      ONGOINGDB_ASSIGN_OR_RETURN(
          EquiJoinPlan join_plan,
          PrepareEquiJoin(left_schema, right_schema, node->predicate(),
                          node->left_prefix(), node->right_prefix()));
      // Every pipeline evaluates a nested-loop inner and both hash-join
      // inputs in full, so each is a serial tree of its own.
      ONGOINGDB_ASSIGN_OR_RETURN(PhysicalOpPtr right,
                                 Compile(node->right(), mode, rt, ctx));
      // join_plan.has_keys is ResolveAutoJoinAlgorithm's keyless rule —
      // both derive from PrepareEquiJoin, so kAuto and this lowering
      // agree.
      if (!join_plan.has_keys || algorithm == JoinAlgorithm::kNestedLoop) {
        // Nested-loop: the streaming outer side is this partition's
        // share, the materialized inner is replicated (borrowed outright
        // when it is a base relation; otherwise each partition
        // materializes its own copy — K-fold memory, which the serial
        // fallback keeps off small inputs).
        ONGOINGDB_ASSIGN_OR_RETURN(
            PhysicalOpPtr outer,
            Lower(node->left(), mode, rt, partition, state));
        return PhysicalOpPtr(std::make_unique<NestedLoopJoinOp>(
            std::move(outer), std::move(right), std::move(join_plan.joined),
            node->predicate(), mode, rt, ctx));
      }
      ONGOINGDB_ASSIGN_OR_RETURN(PhysicalOpPtr left,
                                 Compile(node->left(), mode, rt, ctx));
      if (state->exchange != nullptr) {
        // Hash join in a parallel plan: hash-partition both inputs, build
        // and probe per-partition tables.
        left = std::make_unique<RepartitionOp>(
            std::move(left), join_plan.left_indices, partition,
            state->num_partitions, ctx);
        right = std::make_unique<RepartitionOp>(
            std::move(right), join_plan.right_indices, partition,
            state->num_partitions, ctx);
      }
      return PhysicalOpPtr(std::make_unique<HashJoinOp>(
          std::move(left), std::move(right), std::move(join_plan), mode, rt,
          ctx));
    }
  }
  return Status::Internal("unknown plan kind");
}

// A parallel lowering of a plan into `workers` partition pipelines.
// The pipelines' output streams are disjoint and their multiset union
// equals the serial plan's result; tuple order across pipelines is
// unspecified. Each pipeline is a self-contained operator tree — no
// shared mutable state besides the exchange cursors and the index-NL
// joins' index states — so the gather operator drains the pipelines
// from different threads concurrently (one thread per pipeline).
struct PartitionedPlan {
  std::vector<PhysicalOpPtr> pipelines;
  std::shared_ptr<ExchangeState> exchange;
};

Result<PartitionedPlan> CompilePartitions(const PlanPtr& plan, ExecMode mode,
                                          TimePoint rt, size_t workers,
                                          size_t morsel_size,
                                          QueryContext* ctx) {
  PartitionedPlan result;
  result.exchange = std::make_shared<ExchangeState>();
  LowerState state;
  state.ctx = ctx;
  state.exchange = result.exchange;
  state.morsel_size = std::max<size_t>(morsel_size, 1);
  state.num_partitions = std::max<size_t>(workers, 1);
  result.pipelines.reserve(state.num_partitions);
  for (size_t p = 0; p < state.num_partitions; ++p) {
    ONGOINGDB_ASSIGN_OR_RETURN(PhysicalOpPtr pipeline,
                               Lower(plan, mode, rt, p, &state));
    result.pipelines.push_back(std::move(pipeline));
  }
  return result;
}

}  // namespace

Result<PhysicalOpPtr> Compile(const PlanPtr& plan, ExecMode mode,
                              TimePoint rt, QueryContext* ctx) {
  LowerState serial;
  serial.ctx = ctx;
  return Lower(plan, mode, rt, /*partition=*/0, &serial);
}

Result<PhysicalOpPtr> Compile(const PlanPtr& plan, ExecMode mode, TimePoint rt,
                              const ParallelOptions& options,
                              QueryContext* ctx) {
  const size_t workers = EffectiveWorkers(plan, options);
  if (workers <= 1) return Compile(plan, mode, rt, ctx);
  ONGOINGDB_ASSIGN_OR_RETURN(
      PartitionedPlan partitioned,
      CompilePartitions(plan, mode, rt, workers, options.morsel_size, ctx));
  return PhysicalOpPtr(std::make_unique<GatherOp>(
      std::move(partitioned.pipelines), std::move(partitioned.exchange),
      EffectiveBatchSize(options), ctx));
}

Result<OngoingRelation> DrainToRelation(PhysicalOperator& op,
                                        QueryContext* ctx,
                                        size_t batch_capacity) {
  if (ctx != nullptr) ONGOINGDB_RETURN_NOT_OK(ctx->Check());
  // A bare ongoing scan materializes to a copy of the relation itself.
  if (const OngoingRelation* rel = op.BorrowedRelation()) return *rel;
  if (Status st = op.Open(); !st.ok()) {
    // A partially opened tree (a join whose build side materialized
    // before a later Open step failed) holds bulk state; Close() is
    // safe after a failed Open and releases it.
    op.Close();
    return st;
  }
  OngoingRelation result(op.schema());
  MemoryCharge charge;
  charge.Init(ctx);
  TupleBatch batch(batch_capacity);
  Status st;
  while (true) {
    st = op.Next(&batch);
    if (!st.ok() || batch.empty()) break;
    uint64_t bytes = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      bytes += ApproxTupleBytes(batch.tuple(i));
      result.AppendUnchecked(std::move(batch.tuple(i)));
    }
    st = charge.Add(bytes);
    if (!st.ok()) break;
  }
  op.Close();
  ONGOINGDB_RETURN_NOT_OK(st);
  return result;
}

}  // namespace ongoingdb
