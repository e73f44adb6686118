// The traced statement path and the helpers the workloads share.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "query/optimizer.h"
#include "query/physical.h"
#include "sql/parser.h"
#include "sql/statement.h"
#include "workloads.h"

namespace perfbench {

using namespace ongoingdb;

void Layers::AddSpans(const Tracer& tracer, size_t first) {
  const std::vector<Span>& all = tracer.spans();
  if (first >= all.size()) return;
  std::vector<Span> local(all.begin() + static_cast<ptrdiff_t>(first),
                          all.end());
  for (Span& s : local) {
    s.parent = s.parent >= static_cast<int>(first)
                   ? s.parent - static_cast<int>(first)
                   : -1;
  }
  const std::vector<double> self = SelfTimesUs(local);
  std::map<std::string, double> per_name;
  for (size_t i = 0; i < local.size(); ++i) {
    per_name[local[i].name] += self[i];
    const std::string name = local[i].name;
    if (local[i].parent < 0 && name.rfind("op.", 0) == 0) {
      Total("op_us", local[i].end_us - local[i].start_us);
      Total("uncovered_us", self[i]);
    }
  }
  for (const auto& [name, us] : per_name) {
    Sample(name, us);
    Total(name, us);
  }
}

void Run::Trace(bool on) {
  tracer.Enable(on);
  if (!on) {
    DisarmCounting();
  } else if (!ArmCounting()) {
    std::fprintf(stderr, "some failpoint sites are missing; they count 0\n");
  }
}

void Run::CountOp(bool ok, const std::string& what) {
  ++report.attempted;
  if (!ok) {
    if (report.failed < 5) std::fprintf(stderr, "op failed: %s\n", what.c_str());
    ++report.failed;
  }
}

std::string DateString(TimePoint t) {
  const CivilDate d = CivilFromDays(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d/%02u/%02u", d.year, d.month, d.day);
  return buf;
}

std::vector<std::string> SortedRows(const OngoingRelation& r) {
  std::vector<std::string> rows;
  rows.reserve(r.size());
  for (const Tuple& t : r.tuples()) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

namespace {

template <typename F>
auto InSpan(Tracer* tracer, const char* name, uint64_t op, F&& f) {
  ScopedSpan span(tracer, name, op);
  return f();
}

/// TracedExecute without the snapshot release, which the caller times:
/// `*snap` and `*view` outlive this call as they outlive the statement
/// in Session::Execute.
Result<server::ExecResult> ExecuteInSpans(Run* run, server::Catalog* catalog,
                                          QueryContext* ctx, size_t workers,
                                          const std::string& statement,
                                          const std::string& counts,
                                          std::optional<server::Snapshot>* pin,
                                          std::optional<sql::Catalog>* pinned) {
  Tracer* t = &run->tracer;
  const uint64_t op = run->next_op;
  ctx->Reset();
  ctx->SetMemoryBudget(0);

  InSpan(t, "server.pin", op, [&] {
    pin->emplace(catalog->PinSnapshot());
    pinned->emplace((*pin)->View());
    return 0;
  });
  const server::Snapshot& snap = **pin;
  const sql::Catalog& view = **pinned;
  ONGOINGDB_ASSIGN_OR_RETURN(sql::ParsedStatement parsed,
                             InSpan(t, "sql.parse", op, [&] {
                               return sql::ParseStatement(statement, view);
                             }));

  server::ExecResult out;
  switch (parsed.kind) {
    case sql::StatementKind::kSelect: {
      ctx->SetSnapshotSeq(snap.commit_seq());
      ParallelOptions popts;
      popts.workers = workers;
      const Hits before = ReadHits();
      ONGOINGDB_ASSIGN_OR_RETURN(PlanPtr plan, InSpan(t, "sql.parse", op, [&] {
                                   return sql::ParseQuery(parsed.text, view);
                                 }));
      ONGOINGDB_ASSIGN_OR_RETURN(
          PlanPtr optimized,
          InSpan(t, "query.optimize", op, [&] { return Optimize(plan); }));
      ONGOINGDB_ASSIGN_OR_RETURN(
          PhysicalOpPtr root, InSpan(t, "query.compile", op, [&] {
            return Compile(optimized, ExecMode::kOngoing, 0, popts, ctx);
          }));
      const ProcStats a = ReadProc();
      const double w0 = NowUs();
      // The drain span also covers tearing the operator tree down, as
      // Execute() does on return.
      ONGOINGDB_ASSIGN_OR_RETURN(
          OngoingRelation relation, InSpan(t, "query.drain", op, [&] {
            Result<OngoingRelation> drained =
                DrainToRelation(*root, ctx, EffectiveBatchSize(popts));
            root.reset();
            return drained;
          }));
      const double w1 = NowUs();
      const ProcStats b = ReadProc();
      const Hits hits = ReadHits() - before;
      auto total = [&](const char* key, double value) {
        run->layers.Total(counts + "." + key, value);
      };
      total("n", 1);
      total("rows", static_cast<double>(relation.size()));
      total("drain_cpu_s", b.cpu_s - a.cpu_s);
      total("drain_wall_s", (w1 - w0) * 1e-6);
      for (auto [key, site] :
           {std::pair{"hits.index_build", kIndexBuild},
            {"hits.repartition_route", kRepartitionRoute},
            {"hits.gather_handoff", kGatherHandoff},
            {"hits.exec_materialize", kExecMaterialize},
            {"hits.exec_next", kExecNext},
            {"hits.exec_open", kExecOpen}}) {
        total(key, static_cast<double>(hits[site]));
      }
      out.snapshot_seq = snap.commit_seq();
      out.result.affected = relation.size();
      out.result.relation = std::move(relation);
      return out;
    }
    case sql::StatementKind::kCreateTable:
      break;  // no workload issues DDL
    case sql::StatementKind::kInsert: {
      ONGOINGDB_ASSIGN_OR_RETURN(
          out.snapshot_seq, InSpan(t, "server.commit", op, [&] {
            return catalog->Insert(parsed.table, parsed.values);
          }));
      out.result.affected = 1;
      return out;
    }
    case sql::StatementKind::kDelete: {
      ONGOINGDB_ASSIGN_OR_RETURN(auto relation, snap.Get(parsed.table));
      ModificationFilter filter =
          sql::MakeModificationFilter(parsed.predicate, relation->schema());
      size_t deleted = 0;
      ONGOINGDB_ASSIGN_OR_RETURN(
          out.snapshot_seq, InSpan(t, "server.commit", op, [&] {
            return catalog->TemporalDeleteWhere(parsed.table, parsed.tc,
                                                filter, &deleted);
          }));
      out.result.affected = deleted;
      return out;
    }
    case sql::StatementKind::kUpdate: {
      ONGOINGDB_ASSIGN_OR_RETURN(auto relation, snap.Get(parsed.table));
      ModificationFilter filter =
          sql::MakeModificationFilter(parsed.predicate, relation->schema());
      auto updater = sql::MakeAssignmentUpdater(parsed.assignments);
      size_t updated = 0;
      ONGOINGDB_ASSIGN_OR_RETURN(
          out.snapshot_seq, InSpan(t, "server.commit", op, [&] {
            return catalog->TemporalUpdateWhere(parsed.table, parsed.tc,
                                                filter, updater, &updated);
          }));
      out.result.affected = updated;
      return out;
    }
  }
  return Status::InvalidArgument("the traced path runs no DDL");
}

}  // namespace

Result<server::ExecResult> TracedExecute(Run* run, server::Catalog* catalog,
                                         QueryContext* ctx, size_t workers,
                                         const std::string& statement,
                                         const std::string& counts) {
  std::optional<server::Snapshot> snap;
  std::optional<sql::Catalog> view;
  Result<server::ExecResult> result = ExecuteInSpans(
      run, catalog, ctx, workers, statement, counts, &snap, &view);
  // Dropping the last pin of a superseded catalog state frees the table
  // versions the commits since evicted from the ring.
  ScopedSpan span(&run->tracer, "server.release", run->next_op);
  view.reset();
  snap.reset();
  return result;
}

}  // namespace perfbench
