// `ingest`: one served table T driven through one server::Session.
// About 65% of ops are commits (70% of them INSERT ... PERIOD [tc, NOW),
// the rest DELETE/UPDATE ... WHERE ID = x AT DATE tc); the other 35% are
// SELECTs of one shape, K = k AND VT OVERLAPS a fixed one-year window.
// Every commit republishes T, so commit latency carries the per-commit
// publish cost; every SELECT plans an index scan over VT.
#include <cstdio>
#include <memory>

#include "datasets/synthetic.h"
#include "relation/modifications.h"
#include "workloads.h"

namespace perfbench {

using namespace ongoingdb;

namespace {

struct IngestShape {
  int64_t rows;
  int64_t keys;
  size_t epoch_ops;
  size_t warmup_ops;
  int setups;
};

constexpr IngestShape kMainShape{20000, 1000, 500, 60, 5};
constexpr IngestShape kProbeShape{20000, 1000, 1000, 40, 1};
// One 500-op epoch already holds 175 SELECTs and 325 commits.
constexpr int kMinEpochs = 1;

constexpr size_t kVtIndex = 2;
constexpr TimePoint kHistoryEnd = Date(2019, 1, 1);

enum class Kind { kSelect, kInsert, kDelete, kUpdate };

struct IngestOp {
  Kind kind;
  std::string sql;
  int64_t id = 0;
  int64_t k = 0;
  TimePoint tc = 0;
};

/// The epoch's op sequence: exact shares, seeded order and arguments.
std::vector<IngestOp> GenerateOps(uint64_t seed, const IngestShape& shape) {
  SeqRng rng(seed * 0x2545F4914F6CDD1DULL + 11);
  const size_t n = shape.epoch_ops;
  const size_t selects = n * 35 / 100;
  const size_t commits = n - selects;
  const size_t inserts = commits * 70 / 100;
  const size_t deletes = (commits - inserts) / 2;
  std::vector<Kind> kinds;
  kinds.insert(kinds.end(), selects, Kind::kSelect);
  kinds.insert(kinds.end(), inserts, Kind::kInsert);
  kinds.insert(kinds.end(), deletes, Kind::kDelete);
  kinds.insert(kinds.end(), commits - inserts - deletes, Kind::kUpdate);
  rng.Shuffle(&kinds);

  std::vector<IngestOp> ops;
  int64_t next_id = shape.rows;
  size_t commit_index = 0;
  for (Kind kind : kinds) {
    IngestOp op{kind, ""};
    op.tc = kHistoryEnd + static_cast<TimePoint>(commit_index / 4);
    op.k = rng.Uniform(0, shape.keys - 1);
    const std::string tc = "'" + DateString(op.tc) + "'";
    switch (kind) {
      case Kind::kSelect: {
        const int year = static_cast<int>(rng.Uniform(2014, 2018));
        op.sql = "SELECT * FROM T WHERE K = " + std::to_string(op.k) +
                 " AND VT OVERLAPS PERIOD ['" + std::to_string(year) +
                 "/01/01', '" + std::to_string(year + 1) + "/01/01')";
        break;
      }
      case Kind::kInsert:
        op.id = next_id++;
        op.sql = "INSERT INTO T VALUES (" + std::to_string(op.id) + ", " +
                 std::to_string(op.k) + ", PERIOD [" + tc + ", NOW))";
        break;
      case Kind::kDelete:
        op.id = rng.Uniform(0, next_id - 1);
        op.sql = "DELETE FROM T WHERE ID = " + std::to_string(op.id) +
                 " AT DATE " + tc;
        break;
      case Kind::kUpdate:
        op.id = rng.Uniform(0, next_id - 1);
        op.sql = "UPDATE T SET K = " + std::to_string(op.k) +
                 " WHERE ID = " + std::to_string(op.id) + " AT DATE " + tc;
        break;
    }
    if (kind != Kind::kSelect) ++commit_index;
    ops.push_back(std::move(op));
  }
  return ops;
}

/// T after the epoch, replayed through the plain Torp modifications on
/// an OngoingRelation: the reference the served table must equal.
Result<OngoingRelation> Replay(const OngoingRelation& initial,
                               const std::vector<IngestOp>& ops) {
  OngoingRelation r = initial;
  for (const IngestOp& op : ops) {
    auto by_id = [id = op.id](const Tuple& t) {
      return t.value(0).AsInt64() == id;
    };
    switch (op.kind) {
      case Kind::kSelect:
        break;
      case Kind::kInsert:
        ONGOINGDB_RETURN_NOT_OK(TemporalInsert(
            &r,
            {Value::Int64(op.id), Value::Int64(op.k),
             Value::Ongoing(OngoingInterval::SinceUntilNow(op.tc))},
            kVtIndex, op.tc));
        break;
      case Kind::kDelete:
        ONGOINGDB_RETURN_NOT_OK(
            TemporalDelete(&r, kVtIndex, op.tc, by_id).status());
        break;
      case Kind::kUpdate:
        ONGOINGDB_RETURN_NOT_OK(TemporalUpdate(
            &r, kVtIndex, op.tc, by_id, [k = op.k](const Tuple& t) {
              std::vector<Value> values = t.values();
              values[1] = Value::Int64(k);
              return values;
            }).status());
        break;
    }
  }
  return r;
}

/// One served catalog with T registered from `data`.
std::unique_ptr<server::Catalog> Register(Run* run,
                                          const OngoingRelation& data) {
  auto catalog = std::make_unique<server::Catalog>();
  const size_t first = run->tracer.spans().size();
  bool ok = false;
  {
    ScopedSpan span(&run->tracer, "server.register", run->next_op);
    ok = catalog->RegisterTable("T", data).ok();
  }
  run->layers.AddSpans(run->tracer, first);
  run->report.Check(ok, "ingest: RegisterTable failed");
  return catalog;
}

}  // namespace

void RunIngest(Run* run, Scale scale, Classes* out) {
  const bool main_loop = scale == Scale::kMain;
  const IngestShape& shape = main_loop ? kMainShape : kProbeShape;
  const char* name = main_loop ? "ingest" : "ingest-probe";
  const std::vector<IngestOp> ops = GenerateOps(run->args.seed, shape);
  uint64_t digest = Fnv1a(std::to_string(shape.rows));
  for (const IngestOp& op : ops) digest = Fnv1a(op.sql + "\n", digest);
  std::printf("sequence %s seed=%llu ops=%zu fnv1a64=%016llx\n", name,
              static_cast<unsigned long long>(run->args.seed), ops.size(),
              static_cast<unsigned long long>(digest));

  datasets::SyntheticOptions gen;
  gen.cardinality = shape.rows;
  gen.key_cardinality = shape.keys;
  gen.ongoing_fraction = 0.20;
  gen.seed = run->args.seed;

  // Set-up: generate, register and run the warm-up prefix; repeated so
  // its median is steady. The last set-up's data seeds every epoch.
  OngoingRelation data;
  for (int s = 0; s < shape.setups; ++s) {
    run->BeginSetup();
    const size_t first = run->tracer.spans().size();
    {
      ScopedSpan span(&run->tracer, "datasets.generate", run->next_op);
      data = datasets::GenerateSynthetic(gen);
    }
    run->layers.AddSpans(run->tracer, first);
    std::unique_ptr<server::Catalog> catalog = Register(run, data);
    server::SessionManager manager(catalog.get());
    auto session = manager.CreateSession();
    for (size_t i = 0; i < shape.warmup_ops && i < ops.size(); ++i) {
      auto result = session->Execute(ops[i].sql);
      run->CountOp(result.ok(), result.ok() ? "" : result.status().ToString());
    }
    if (main_loop) run->EndSetup();
  }

  auto replayed = Replay(data, ops);
  run->report.Check(replayed.ok(), std::string(name) + ": replay failed");
  const std::vector<std::string> expected =
      replayed.ok() ? SortedRows(*replayed) : std::vector<std::string>{};

  std::vector<size_t> first_rows;  // rows of each SELECT in epoch 0
  double timed_us = 0;
  for (int epoch = 0;; ++epoch) {
    if (!run->MoreEpochs(main_loop, epoch, timed_us, kMinEpochs)) break;
    // Trace runs alternate untraced and traced epochs of the same
    // sequence; the probe is traced whole.
    const bool traced =
        run->args.trace && (!main_loop || epoch % 2 == 1);
    run->Trace(traced);
    std::unique_ptr<server::Catalog> catalog = Register(run, data);
    server::SessionManager manager(catalog.get());
    auto session = manager.CreateSession();
    QueryContext ctx;
    std::vector<size_t> rows;

    run->BeginEpoch();
    for (const IngestOp& op : ops) {
      const bool select = op.kind == Kind::kSelect;
      run->BetweenOps();
      const size_t first = run->tracer.spans().size();
      const double t0 = NowUs();
      Result<server::ExecResult> result = [&] {
        if (!traced) return session->Execute(op.sql);
        ScopedSpan root(&run->tracer, select ? "op.select" : "op.commit",
                        run->next_op);
        return TracedExecute(run, catalog.get(), &ctx, 1, op.sql);
      }();
      const double t1 = NowUs();
      const double ms = (t1 - t0) * 1e-3;
      ++run->next_op;
      run->CountOp(result.ok(),
                   result.ok() ? "" : op.sql + ": " + result.status().ToString());
      if (traced) run->layers.AddSpans(run->tracer, first);
      if (!result.ok()) continue;
      if (select) {
        out->select.Add(ms, 0, (t0 + t1) / 2);
        rows.push_back(result->result.affected);
      } else {
        out->commit.Add(ms, op.kind == Kind::kInsert ? 0 : 1, (t0 + t1) / 2);
      }
    }
    timed_us += run->EndEpoch(main_loop, traced, ops.size());

    // Output checks, outside the timed epoch.
    if (epoch == 0) first_rows = rows;
    run->report.Check(rows == first_rows,
                      std::string(name) +
                          ": SELECT row counts differ between epochs");
    auto versions = catalog->MasterVersionCount("T");
    if (versions.ok()) {
      run->layers.Sample("server.master_versions",
                         static_cast<double>(*versions));
    }
    auto final_t = catalog->PinSnapshot().Get("T");
    run->report.Check(final_t.ok() && SortedRows(**final_t) == expected,
                      std::string(name) +
                          ": served T differs from the Torp replay");
  }
  run->Trace(run->args.trace);
}

}  // namespace perfbench
