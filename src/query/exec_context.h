// QueryContext: the per-query lifecycle contract of the execution
// pipeline — cooperative cancellation, an optional deadline, and an
// optional memory budget, checked at every batch boundary of every
// PhysicalOperator::Next loop (and inside the blocking build phases that
// drain a child without yielding batches to the consumer).
//
// Usage:
//
//   QueryContext ctx;
//   ctx.SetTimeout(std::chrono::milliseconds(50));
//   ctx.SetMemoryBudget(64 << 20);
//   auto result = Execute(plan, options, &ctx);   // or Compile(..., &ctx)
//   // ... from any thread: ctx.Cancel();
//
// The contract (docs/DESIGN.md, "Query lifecycle"):
//
//  * Cancel(), an expired deadline, or an exceeded budget surfaces from
//    Open()/Next()/Execute/ExecuteAtReferenceTime/Refresh as a typed
//    Status — kCancelled / kDeadlineExceeded / kResourceExhausted —
//    within one batch boundary per pipeline.
//  * When the typed Status has surfaced from the root, every producer
//    task the query spawned on the TaskScheduler has finished (GatherOp
//    joins them before returning the error) and all tracked memory
//    charges are released by the operators' Close().
//  * The operator tree remains reopenable: after ctx.Reset() (which
//    clears the cancel flag, the deadline, and the accounting — the
//    budget limit is kept), Open() + drain produce the correct result.
//
// Memory accounting is engine-side arena accounting, not allocator
// interception: operators charge the bytes of state they materialize
// (hash build sides, nested-loop inners, drained results) batch by batch
// via MemoryCharge, using the same per-tuple estimate the TupleBatch
// arena recycles. The opt-in counting allocator (util/alloc_counter.h)
// stays the measurement tool that validates the estimate in benches.
//
// Thread-safety: Cancel/Check/Charge/Release are safe from any thread —
// parallel partition pipelines share one context. The context must
// outlive every operator tree compiled against it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "relation/tuple.h"
#include "util/status.h"

namespace ongoingdb {

/// Cancellation token, deadline, and memory budget of one query.
class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Requests cooperative cancellation; sticky until Reset().
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Absolute deadline; checked against the steady clock at batch
  /// boundaries. Overwrites any previous deadline.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }

  /// Convenience: deadline = now + timeout.
  void SetTimeout(std::chrono::milliseconds timeout) {
    SetDeadline(std::chrono::steady_clock::now() + timeout);
  }

  void ClearDeadline() { deadline_ns_.store(0, std::memory_order_release); }

  /// Caps the bytes of materialized state the query may hold at once
  /// (0 = unlimited). Exceeding it fails the charging operator with
  /// kResourceExhausted.
  void SetMemoryBudget(uint64_t bytes) {
    budget_bytes_.store(bytes, std::memory_order_release);
  }

  uint64_t memory_used() const {
    return used_bytes_.load(std::memory_order_acquire);
  }

  /// The cooperative batch-boundary check. Cancellation and budget are
  /// two relaxed-ish atomic loads; the deadline reads the steady clock
  /// only when one is set.
  Status Check() const {
    if (cancelled_.load(std::memory_order_acquire)) {
      return Status::Cancelled("query cancelled");
    }
    const int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
    if (deadline != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >
            deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    const uint64_t budget = budget_bytes_.load(std::memory_order_acquire);
    if (budget != 0 && used_bytes_.load(std::memory_order_acquire) > budget) {
      return Status::ResourceExhausted("query memory budget exceeded");
    }
    return Status::OK();
  }

  /// Tracks `bytes` of materialized state against the budget; fails with
  /// kResourceExhausted when the charge would exceed it (the charge is
  /// still recorded — the matching Release keeps the accounting exact).
  Status ChargeMemory(uint64_t bytes) {
    const uint64_t used =
        used_bytes_.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
    const uint64_t budget = budget_bytes_.load(std::memory_order_acquire);
    if (budget != 0 && used > budget) {
      return Status::ResourceExhausted("query memory budget exceeded");
    }
    return Status::OK();
  }

  void ReleaseMemory(uint64_t bytes) {
    used_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
  }

  /// The transaction-time snapshot this query is pinned to (the serving
  /// layer's commit sequence, server/catalog.h; 0 = not a snapshot
  /// read). Stamped by the session at pin time, before compilation —
  /// every operator of the tree, on any worker thread, observes the
  /// same value; diagnostics and the concurrent-equivalence tests read
  /// it back to tie a result to the snapshot that produced it.
  void SetSnapshotSeq(uint64_t seq) {
    snapshot_seq_.store(seq, std::memory_order_release);
  }

  uint64_t snapshot_seq() const {
    return snapshot_seq_.load(std::memory_order_acquire);
  }

  /// Rearms the context for another run of the same tree: clears the
  /// cancel flag, the deadline, the memory accounting, and the pinned
  /// snapshot. The budget limit is kept (set a new one explicitly if
  /// needed).
  void Reset() {
    cancelled_.store(false, std::memory_order_release);
    deadline_ns_.store(0, std::memory_order_release);
    used_bytes_.store(0, std::memory_order_release);
    snapshot_seq_.store(0, std::memory_order_release);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};  // steady-clock ns; 0 = none
  std::atomic<uint64_t> budget_bytes_{0};  // 0 = unlimited
  std::atomic<uint64_t> used_bytes_{0};
  std::atomic<uint64_t> snapshot_seq_{0};  // 0 = not a snapshot read
};

/// True for the three query-lifecycle status codes (kCancelled,
/// kDeadlineExceeded, kResourceExhausted).
bool IsLifecycleStatus(const Status& st);

/// A one-line, user-facing rendering of a lifecycle status ("query
/// timed out"); falls back to Status::ToString() for other codes.
std::string FriendlyLifecycleMessage(const Status& st);

/// The engine-side estimate of one materialized tuple's footprint: the
/// slot itself, its value vector, and the reference-time intervals. The
/// same shape the TupleBatch arena recycles per slot; string payloads
/// are shared/refcounted (relation/value.h) and deliberately not
/// attributed to the query holding a reference.
inline uint64_t ApproxTupleBytes(const Tuple& t) {
  return sizeof(Tuple) + t.num_values() * sizeof(Value) +
         t.rt().IntervalCount() * sizeof(FixedInterval);
}

/// The accumulated memory charge of one operator against a context.
/// Operators Init() it on Open (releasing any charge a failed previous
/// run left behind), Add() as they materialize, and Release() on Close;
/// the destructor releases as a backstop, so a tree torn down after an
/// error never leaks accounting. No-op against a null context.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  ~MemoryCharge() { Release(); }
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  void Init(QueryContext* ctx) {
    Release();
    ctx_ = ctx;
  }

  Status Add(uint64_t bytes) {
    if (ctx_ == nullptr) return Status::OK();
    charged_ += bytes;
    return ctx_->ChargeMemory(bytes);
  }

  void Release() {
    if (ctx_ != nullptr && charged_ != 0) ctx_->ReleaseMemory(charged_);
    charged_ = 0;
  }

  uint64_t charged() const { return charged_; }

 private:
  QueryContext* ctx_ = nullptr;
  uint64_t charged_ = 0;
};

}  // namespace ongoingdb
