// `report`: read-only tables A and B and one session whose every op is
// the equi+overlaps join. The drain dominates and no commit runs.
#include <algorithm>
#include <cstdio>

#include "datasets/synthetic.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace ongoingdb;

namespace {

constexpr int64_t kRows = 20000;
constexpr int64_t kKeys = 5000;
// The timed queries run serially: at 4 workers on a 4-vCPU host, CPU
// steal on any one vCPU delays its partition and the slowest partition
// sets the query time, which moved per-run medians by about 2x (see
// README.md, "Noise"). The 4-worker plan still runs once per run, after
// the timed loop, as the reference every timed result must match.
constexpr size_t kWorkers = 1;
constexpr size_t kReferenceWorkers = 4;
constexpr int kSetups = 5;
constexpr int kWarmupQueries = 5;
constexpr size_t kEpochQueries = 10;
// Ten 10-query epochs give 100 SELECTs however slow the build is.
constexpr int kMinEpochs = 10;
constexpr const char* kQuery =
    "SELECT a.ID, b.ID FROM A a JOIN B b ON a.K = b.K AND "
    "a.VT OVERLAPS b.VT";

/// Theorem 2 on a sampled result: ||Q(D)||rt = Q_F(||D||rt).
bool SnapshotReducible(const server::Catalog& catalog,
                       const OngoingRelation& result, TimePoint rt) {
  sql::Catalog view = catalog.PinSnapshot().View();
  auto plan = sql::ParseQuery(kQuery, view);
  if (!plan.ok()) return false;
  auto optimized = Optimize(*plan);
  if (!optimized.ok()) return false;
  auto fixed = ExecuteAtReferenceTime(*optimized, rt);
  return fixed.ok() &&
         InstantiatedRelationsEqual(InstantiateRelation(result, rt), *fixed);
}

}  // namespace

void RunReport(Run* run, Scale scale, Classes* out) {
  const bool main_loop = scale == Scale::kMain;
  std::printf("sequence %s seed=%llu query=%016llx\n",
              main_loop ? "report" : "report-probe",
              static_cast<unsigned long long>(run->args.seed),
              static_cast<unsigned long long>(Fnv1a(kQuery)));
  datasets::SyntheticOptions gen;
  gen.cardinality = kRows;
  gen.key_cardinality = kKeys;
  gen.ongoing_fraction = 0.20;

  std::unique_ptr<server::Catalog> catalog;
  std::unique_ptr<server::SessionManager> manager;
  std::shared_ptr<server::Session> session;
  for (int s = 0; s < (main_loop ? kSetups : 1); ++s) {
    run->BeginSetup();
    session.reset();
    manager.reset();
    catalog = std::make_unique<server::Catalog>();
    for (const char* table : {"A", "B"}) {
      gen.seed = run->args.seed * 2 + (table[0] == 'A' ? 1 : 2);
      size_t first = run->tracer.spans().size();
      OngoingRelation data;
      {
        ScopedSpan span(&run->tracer, "datasets.generate", run->next_op);
        data = datasets::GenerateSynthetic(gen);
      }
      run->layers.AddSpans(run->tracer, first);
      first = run->tracer.spans().size();
      {
        ScopedSpan span(&run->tracer, "server.register", run->next_op);
        run->report.Check(catalog->RegisterTable(table, data).ok(),
                          "report: RegisterTable failed");
      }
      run->layers.AddSpans(run->tracer, first);
    }
    manager = std::make_unique<server::SessionManager>(catalog.get());
    session = manager->CreateSession();
    run->report.Check(
        session->Execute("SET workers = " + std::to_string(kWorkers)).ok(),
        "report: SET workers failed");
    for (int i = 0; main_loop && i < kWarmupQueries; ++i) {
      auto result = session->Execute(kQuery);
      run->CountOp(result.ok(), result.ok() ? "" : result.status().ToString());
    }
    if (main_loop) run->EndSetup();
  }

  QueryContext ctx;
  std::vector<size_t> rows;  // of every timed query
  std::vector<OngoingRelation> sampled;
  double timed_us = 0;
  for (int epoch = 0;
       main_loop && run->MoreEpochs(true, epoch, timed_us, kMinEpochs);
       ++epoch) {
    const bool traced = run->args.trace && epoch % 2 == 1;
    run->Trace(traced);
    run->BeginEpoch();
    for (size_t q = 0; q < kEpochQueries; ++q) {
      run->BetweenOps();
      const size_t first = run->tracer.spans().size();
      const double t0 = NowUs();
      Result<server::ExecResult> result = [&] {
        if (!traced) return session->Execute(kQuery);
        ScopedSpan root(&run->tracer, "op.select", run->next_op);
        return TracedExecute(run, catalog.get(), &ctx, kWorkers, kQuery);
      }();
      const double t1 = NowUs();
      const double ms = (t1 - t0) * 1e-3;
      ++run->next_op;
      run->CountOp(result.ok(), result.ok() ? "" : result.status().ToString());
      if (traced) run->layers.AddSpans(run->tracer, first);
      if (!result.ok()) continue;
      out->select.Add(ms, 0, (t0 + t1) / 2);
      rows.push_back(result->result.affected);
      if ((epoch == 0 && q == 0) || (epoch == 1 && q == kEpochQueries - 1)) {
        sampled.push_back(std::move(*result->result.relation));
      }
    }
    timed_us += run->EndEpoch(true, traced, kEpochQueries);
  }

  // The 4-worker evaluation every timed row count must equal. It runs
  // after the timed loop, so its repartitioned copies and worker arenas
  // stay out of peak_rss_mb. Traced runs take the exchange counts and
  // busy cores from it; its spans are written out but feed no per-layer
  // sample.
  run->Trace(run->args.trace);
  Result<server::ExecResult> reference = [&] {
    ScopedSpan root(&run->tracer, "op.reference", run->next_op);
    return TracedExecute(run, catalog.get(), &ctx, kReferenceWorkers, kQuery,
                         "reference");
  }();
  ++run->next_op;
  run->report.Check(reference.ok(), "report: the 4-worker evaluation failed");
  if (reference.ok()) {
    const size_t expected = reference->result.affected;
    run->report.Check(
        std::all_of(rows.begin(), rows.end(),
                    [&](size_t n) { return n == expected; }),
        "report: a row count differs from the 4-worker evaluation");
  }
  for (const OngoingRelation& result : sampled) {
    for (TimePoint rt : {Date(2015, 6, 1), Date(2019, 6, 1)}) {
      run->report.Check(SnapshotReducible(*catalog, result, rt),
                        "report: a sampled result fails Theorem 2 at " +
                            DateString(rt));
    }
  }
}

}  // namespace perfbench
