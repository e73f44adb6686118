#include "server/session.h"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "query/physical.h"
#include "sql/parser.h"
#include "util/failpoint.h"

namespace ongoingdb {
namespace server {

namespace {

// Fault seam of snapshot acquisition: a triggered failure means the
// session could not pin a snapshot — the statement fails cleanly before
// any compilation or execution.
Failpoint& fp_snapshot_pin = Failpoint::GetOrCreate("session.snapshot_pin");

// The largest accepted `SET memory_limit_mb`: the budget is kept in
// bytes (value << 20), and a larger value would shift past 64 bits —
// 2^44 MB wraps to 0, which means unlimited.
constexpr int64_t kMaxMemoryLimitMb = (int64_t{1} << 44) - 1;

// The largest accepted `SET timeout_ms`, about 139 years: the deadline
// is steady_clock::now() + timeout in signed 64-bit nanoseconds, which
// this leaves room for in any plausible uptime.
constexpr int64_t kMaxTimeoutMs = int64_t{1} << 42;

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

}  // namespace

Session::Session(uint64_t id, Catalog* catalog, SessionOptions options)
    : id_(id), catalog_(catalog), options_(options) {}

Result<Snapshot> Session::ReadSnapshot() {
  if (pinned_.has_value()) return *pinned_;
  ONGOINGDB_FAILPOINT(fp_snapshot_pin);
  return catalog_->PinSnapshot();
}

Result<uint64_t> Session::PinSnapshot() {
  ONGOINGDB_FAILPOINT(fp_snapshot_pin);
  pinned_ = catalog_->PinSnapshot();
  return pinned_->commit_seq();
}

// SET knob = value;  — knobs are session-local and take effect on the
// next statement. Returns nullopt when the statement is not a SET.
std::optional<Result<ExecResult>> Session::TrySet(
    const std::string& statement) {
  auto tokens = sql::Tokenize(statement);
  if (!tokens.ok()) return std::nullopt;
  const std::vector<sql::Token>& ts = *tokens;
  // Shape: SET <identifier> = <number> [;]
  if (ts.size() < 4 || Upper(ts[0].text) != "SET" ||
      !ts[1].Is(sql::TokenType::kIdentifier)) {
    return std::nullopt;
  }
  auto fail = [](const std::string& message) -> Result<ExecResult> {
    return Status::InvalidArgument(message);
  };
  if (!ts[2].Is(sql::TokenType::kOperator) || ts[2].text != "=") {
    return fail("expected '=' after SET " + ts[1].text);
  }
  if (!ts[3].Is(sql::TokenType::kNumber)) {
    return fail("SET " + ts[1].text + " expects an integer value");
  }
  size_t pos = 4;
  if (pos < ts.size() && ts[pos].IsPunct(";")) ++pos;
  if (pos < ts.size() && !ts[pos].Is(sql::TokenType::kEnd)) {
    return fail("unexpected trailing input after SET");
  }
  int64_t value = 0;
  try {
    value = std::stoll(ts[3].text);
  } catch (...) {
    return fail("SET " + ts[1].text + " expects an integer value");
  }
  if (value < 0) return fail("SET " + ts[1].text + " expects a value >= 0");

  // A rejected value leaves the knob as it was.
  auto out_of_range = [&](int64_t max) {
    return fail("SET " + ts[1].text + " expects a value in [0, " +
                std::to_string(max) + "]");
  };

  const std::string knob = Upper(ts[1].text);
  if (knob == "WORKERS") {
    options_.workers = static_cast<size_t>(std::max<int64_t>(1, value));
  } else if (knob == "MEMORY_LIMIT_MB") {
    if (value > kMaxMemoryLimitMb) return out_of_range(kMaxMemoryLimitMb);
    options_.memory_limit_bytes = static_cast<uint64_t>(value) << 20;
  } else if (knob == "TIMEOUT_MS") {
    if (value > kMaxTimeoutMs) return out_of_range(kMaxTimeoutMs);
    options_.timeout_ms = value;
  } else if (knob == "BATCH_SIZE") {
    constexpr auto kMax = static_cast<int64_t>(kMaxSessionBatchSize);
    if (value > kMax) return out_of_range(kMax);
    options_.batch_size = static_cast<size_t>(value);
  } else {
    return fail("unknown session knob '" + ts[1].text +
                "' (expected workers, memory_limit_mb, timeout_ms, or "
                "batch_size)");
  }
  ExecResult out;
  out.result.message =
      "SET " + Upper(ts[1].text) + " = " + std::to_string(value);
  return out;
}

Result<ExecResult> Session::Execute(const std::string& statement) {
  if (auto set = TrySet(statement)) return *std::move(set);

  // Arm this statement's lifecycle from the session knobs.
  ctx_.Reset();
  if (options_.timeout_ms > 0) {
    ctx_.SetTimeout(std::chrono::milliseconds(options_.timeout_ms));
  }
  ctx_.SetMemoryBudget(options_.memory_limit_bytes);

  // Reads AND writes parse against a snapshot's schemas: parsing never
  // takes the commit lock, so it cannot block or be blocked.
  ONGOINGDB_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot());
  sql::Catalog view = snap.View();
  ONGOINGDB_ASSIGN_OR_RETURN(sql::ParsedStatement parsed,
                             sql::ParseStatement(statement, view));

  ExecResult out;
  switch (parsed.kind) {
    case sql::StatementKind::kSelect: {
      ctx_.SetSnapshotSeq(snap.commit_seq());
      ParallelOptions popts;
      popts.workers = options_.workers;
      popts.batch_size = options_.batch_size;
      ONGOINGDB_ASSIGN_OR_RETURN(
          OngoingRelation relation,
          sql::RunQuery(parsed.text, view, popts, &ctx_));
      out.snapshot_seq = snap.commit_seq();
      out.result.affected = relation.size();
      out.result.message = std::to_string(relation.size()) + " row(s)";
      out.result.relation = std::move(relation);
      return out;
    }
    case sql::StatementKind::kCreateTable: {
      ONGOINGDB_ASSIGN_OR_RETURN(
          out.snapshot_seq,
          catalog_->CreateTable(parsed.table, parsed.schema));
      out.result.message = "table '" + parsed.table + "' created";
      return out;
    }
    case sql::StatementKind::kInsert: {
      ONGOINGDB_ASSIGN_OR_RETURN(
          out.snapshot_seq, catalog_->Insert(parsed.table, parsed.values));
      out.result.message = "1 row inserted";
      out.result.affected = 1;
      return out;
    }
    case sql::StatementKind::kDelete: {
      // The filter captures the schema by value: it runs later against
      // the commit's copy of the table, under the commit lock.
      ONGOINGDB_ASSIGN_OR_RETURN(auto relation, snap.Get(parsed.table));
      size_t deleted = 0;
      ONGOINGDB_ASSIGN_OR_RETURN(
          out.snapshot_seq,
          catalog_->TemporalDeleteWhere(
              parsed.table, parsed.tc,
              sql::MakeModificationFilter(parsed.predicate,
                                          relation->schema()),
              &deleted));
      out.result.affected = deleted;
      out.result.message =
          std::to_string(deleted) + " row(s) logically deleted";
      return out;
    }
    case sql::StatementKind::kUpdate: {
      ONGOINGDB_ASSIGN_OR_RETURN(auto relation, snap.Get(parsed.table));
      size_t updated = 0;
      ONGOINGDB_ASSIGN_OR_RETURN(
          out.snapshot_seq,
          catalog_->TemporalUpdateWhere(
              parsed.table, parsed.tc,
              sql::MakeModificationFilter(parsed.predicate,
                                          relation->schema()),
              sql::MakeAssignmentUpdater(parsed.assignments), &updated));
      out.result.affected = updated;
      out.result.message = std::to_string(updated) + " row(s) updated";
      return out;
    }
  }
  return Status::Internal("unknown statement kind");
}

std::shared_ptr<Session> SessionManager::CreateSession(
    SessionOptions options) {
  MutexLock lock(mu_);
  auto session = std::make_shared<Session>(next_id_++, catalog_, options);
  // Prune dropped sessions while we hold the lock anyway.
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [](const std::weak_ptr<Session>& w) {
                                   return w.expired();
                                 }),
                  sessions_.end());
  sessions_.push_back(session);
  return session;
}

size_t SessionManager::active_sessions() const {
  MutexLock lock(mu_);
  size_t alive = 0;
  for (const auto& w : sessions_) {
    if (!w.expired()) ++alive;
  }
  return alive;
}

}  // namespace server
}  // namespace ongoingdb
