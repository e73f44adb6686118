// Sessions: the per-client execution surface of the serving layer.
//
// A Session owns one QueryContext and a set of execution knobs (worker
// count, memory budget, statement timeout). Execute() runs one SQL
// statement, which it tokenizes once:
//
//  * SELECT pins a transaction-time snapshot of the serving catalog
//    (one pointer copy — never behind a writer's commit), parses its plan
//    against the pinned, immutable relation versions, stamps the
//    snapshot sequence into the QueryContext, then optimizes and
//    executes the plan. Concurrent sessions drain their plans on the
//    shared TaskScheduler.
//  * DDL/DML parse against a snapshot's schemas, then route through the
//    serving catalog's commit path (server/catalog.h), which serializes
//    writers and publishes each commit atomically.
//  * SET knob = value; adjusts the session's own execution knobs
//    (workers, memory_limit_mb, timeout_ms, batch_size) — they apply to
//    every subsequent statement of this session only.
//
// By default every SELECT pins a fresh snapshot (read-latest). A session
// may instead PinSnapshot() to hold one transaction-time point across
// statements — repeatable reads — until Unpin().
//
// A SessionManager hands out sessions over one shared catalog and tracks
// how many are alive.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/exec_context.h"
#include "server/catalog.h"
#include "sql/statement.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace ongoingdb {
namespace server {

/// The largest accepted `SET batch_size`. Batches build their slots
/// eagerly and a parallel gather holds two per pipeline, so an unbounded
/// capacity turns one SQL line into an allocation failure.
inline constexpr size_t kMaxSessionBatchSize = size_t{1} << 16;

/// Per-session execution knobs, adjustable via SET.
struct SessionOptions {
  /// Parallel partition pipelines per statement (SET workers = N).
  size_t workers = 1;
  /// Memory budget per statement in bytes, 0 = unlimited
  /// (SET memory_limit_mb = N).
  uint64_t memory_limit_bytes = 0;
  /// Statement timeout in milliseconds, 0 = none (SET timeout_ms = N).
  int64_t timeout_ms = 0;
  /// Tuple-batch capacity queries drain through, 0 = engine default
  /// (SET batch_size = N). Flows into ParallelOptions::batch_size.
  size_t batch_size = 0;
};

/// Outcome of one statement, tied to the transaction time it observed.
struct ExecResult {
  sql::StatementResult result;
  /// For reads: the commit sequence of the pinned snapshot the result
  /// was computed against. For writes: the commit sequence published.
  uint64_t snapshot_seq = 0;
};

/// One client session. Not thread-safe itself (one statement at a time
/// per session), but any number of sessions run concurrently against
/// the same catalog; Cancel() may be called from any thread.
class Session {
 public:
  Session(uint64_t id, Catalog* catalog, SessionOptions options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  const SessionOptions& options() const { return options_; }
  QueryContext& context() { return ctx_; }

  /// Executes one statement (SELECT / CREATE / INSERT / DELETE /
  /// UPDATE / SET) under this session's knobs and snapshot mode.
  Result<ExecResult> Execute(const std::string& statement);

  /// Pins the catalog's current snapshot for repeatable reads: every
  /// subsequent SELECT observes this transaction time until Unpin().
  /// Returns the pinned commit sequence. Subject to the
  /// `session.snapshot_pin` failpoint.
  Result<uint64_t> PinSnapshot();

  /// Drops the pinned snapshot; SELECTs go back to read-latest.
  void Unpin() { pinned_.reset(); }

  bool pinned() const { return pinned_.has_value(); }

  /// Cooperatively cancels the statement currently executing (if any).
  /// Safe from any thread.
  void Cancel() { ctx_.Cancel(); }

 private:
  /// The snapshot the next read observes: the pinned one, or a fresh
  /// pin (through the `session.snapshot_pin` failpoint).
  Result<Snapshot> ReadSnapshot();

  /// Handles `SET knob = value;` from a statement's tokens, or returns
  /// nullopt if they are not a SET.
  std::optional<Result<ExecResult>> TrySet(
      const std::vector<sql::Token>& tokens);

  const uint64_t id_;
  Catalog* const catalog_;
  SessionOptions options_;
  QueryContext ctx_;
  std::optional<Snapshot> pinned_;
};

/// Hands out sessions over one shared serving catalog.
class SessionManager {
 public:
  explicit SessionManager(Catalog* catalog) : catalog_(catalog) {}

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a new session with a unique id.
  std::shared_ptr<Session> CreateSession(SessionOptions options = {});

  /// Number of sessions currently alive (created and not yet dropped).
  size_t active_sessions() const;

 private:
  Catalog* const catalog_;
  mutable Mutex mu_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  mutable std::vector<std::weak_ptr<Session>> sessions_ GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace ongoingdb
