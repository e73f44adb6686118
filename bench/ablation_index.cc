// Ablation: index-backed temporal selection vs the full-scan filter,
// both through the batched execution pipeline (the paper's third
// future-work item, Sec. X, promoted into the engine in PR 4). The
// IntervalIndex stores conservative endpoint bounds per tuple; an
// eligible Filter(Scan) that forces AccessPath::kIndex lowers to an
// index scan that streams the candidate list and tests the exact
// ongoing predicate on each candidate (docs/DESIGN.md, "Index access
// path"). kAuto lowers to the scan, which beats the cold index.
//
// Measured per probe (location sweep + selectivity sweep):
//   scan        — AccessPath::kFullScan, the full-scan drain;
//   index warm  — cached compiled tree, index already built (the
//                 materialized-view / repeated-query regime);
//   index cold  — fresh compile + first drain, i.e. including the
//                 O(n log n) index build.
// Set ONGOINGDB_BENCH_JSON to emit machine-readable records (the
// BENCH_*.json baselines).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "query/interval_index.h"
#include "query/optimizer.h"
#include "query/physical.h"

using namespace ongoingdb;
using namespace ongoingdb::bench;

namespace {

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

size_t DrainSize(PhysicalOperator& op) {
  return Must(DrainToRelation(op), "drain").size();
}

struct ProbeSpec {
  std::string label;
  FixedInterval interval;
};

}  // namespace

int main() {
  std::printf("Ablation: index-backed selection vs full-scan filter "
              "(Q^sigma_ovlp / Q^sigma_bef on Dsc, batched pipeline)\n\n");
  const int64_t n = Scaled(200000);
  OngoingRelation dsc = datasets::GenerateDsc(n);
  BenchJsonWriter json("ablation_index");

  const TimePoint history_end = Date(2019, 1, 1);
  const TimePoint history_start = history_end - 10 * 365;
  const TimePoint span = history_end - history_start;

  // The standalone build cost the cold path pays and the warm path
  // amortizes.
  const double build_ms =
      MedianSeconds([&] {
        (void)Must(IntervalIndex::Build(dsc, "VT"), "index build");
      }) *
      1e3;
  json.AddMs("index_build/" + std::to_string(n), build_ms);
  std::printf("index build over %lld tuples: %s ms\n\n",
              static_cast<long long>(n), FormatDouble(build_ms, 2).c_str());

  // Probe sweep: the three history locations at a fixed ~90-day width,
  // plus a selectivity sweep of widths ending at the history's end
  // (wider probe => more candidates => the index degenerates towards
  // the scan).
  std::vector<ProbeSpec> probes = {
      {"loc=early", {history_start + 30, history_start + 120}},
      {"loc=middle",
       {history_start + 5 * 365, history_start + 5 * 365 + 90}},
      {"loc=late", {history_end - 90, history_end}},
  };
  for (double frac : {0.001, 0.01, 0.1, 0.5}) {
    TimePoint width = static_cast<TimePoint>(span * frac);
    if (width < 1) width = 1;
    probes.push_back({"width=" + FormatDouble(frac * 100, 1) + "pct",
                      {history_end - width, history_end}});
  }

  IntervalIndex index = Must(IntervalIndex::Build(dsc, "VT"), "index build");

  TablePrinter table;
  table.SetHeader({"probe", "predicate", "scan [ms]", "index warm [ms]",
                   "index cold [ms]", "candidates", "result"});
  const struct {
    AllenOp op;
    const char* name;
  } preds[] = {{AllenOp::kOverlaps, "overlaps"}, {AllenOp::kBefore, "before"}};
  for (const ProbeSpec& probe : probes) {
    for (const auto& pred : preds) {
      PlanPtr scan_plan =
          SelectionPlan(&dsc, pred.op, probe.interval, AccessPath::kFullScan);
      PlanPtr index_plan =
          SelectionPlan(&dsc, pred.op, probe.interval, AccessPath::kIndex);

      PhysicalOpPtr scan_op =
          Must(Compile(scan_plan, ExecMode::kOngoing), "compile scan");
      size_t result_size = 0;
      const double scan_ms =
          MedianSeconds([&] { result_size = DrainSize(*scan_op); }) * 1e3;

      // Cold: fresh compile, first drain builds the index.
      const double cold_ms =
          MedianSeconds([&] {
            PhysicalOpPtr op =
                Must(Compile(index_plan, ExecMode::kOngoing), "compile index");
            (void)DrainSize(*op);
          }) *
          1e3;

      // Warm: cached tree, the fingerprint check reuses the index.
      PhysicalOpPtr index_op =
          Must(Compile(index_plan, ExecMode::kOngoing), "compile index");
      size_t index_result = DrainSize(*index_op);  // pays the build
      const double warm_ms =
          MedianSeconds([&] { index_result = DrainSize(*index_op); }) * 1e3;
      if (index_result != result_size) {
        std::fprintf(stderr, "index/scan result mismatch: %zu vs %zu\n",
                     index_result, result_size);
        return 1;
      }

      const size_t candidates =
          pred.op == AllenOp::kOverlaps
              ? index.OverlapCandidates(probe.interval).size()
              : index.BeforeCandidates(probe.interval).size();
      table.AddRow({probe.label, pred.name, FormatDouble(scan_ms, 2),
                    FormatDouble(warm_ms, 2), FormatDouble(cold_ms, 2),
                    std::to_string(candidates), std::to_string(result_size)});
      const std::string key =
          std::string(pred.name) + "/" + probe.label;
      json.AddMs("select_scan/" + key, scan_ms);
      json.AddMs("select_index_warm/" + key, warm_ms);
      json.AddMs("select_index_cold/" + key, cold_ms);
    }
  }
  table.Print();

  // Parallel index drain: the partition pipelines split the shared
  // candidate list via an atomic morsel cursor (speedup bounded by the
  // host's core count, like every parallel bench).
  {
    TimePoint width = static_cast<TimePoint>(span * 0.1);
    PlanPtr plan = SelectionPlan(
        &dsc, AllenOp::kOverlaps,
        FixedInterval{history_end - width, history_end}, AccessPath::kIndex);
    std::printf("\nParallel index drain (width=10pct, overlaps):\n");
    TablePrinter par_table;
    par_table.SetHeader({"workers", "index warm [ms]"});
    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
      ParallelOptions par;
      par.workers = workers;
      par.min_parallel_tuples = 0;
      PhysicalOpPtr op = Must(Compile(plan, ExecMode::kOngoing, 0, par),
                              "compile parallel index");
      (void)DrainSize(*op);  // pays the build
      const double ms = MedianSeconds([&] { (void)DrainSize(*op); }) * 1e3;
      par_table.AddRow({std::to_string(workers), FormatDouble(ms, 2)});
      json.AddMs("select_index_parallel/overlaps/width=10pct/workers=" +
                     std::to_string(workers),
                 ms);
    }
    par_table.Print();
  }

  std::printf("\nFor selective probes the index visits only the candidate "
              "prefix; wide probes degenerate to a scan (expanding [a, now) "
              "intervals can overlap anything late). The cold column adds "
              "the one-time index build the cached-tree regime "
              "(materialized views, repeated queries) amortizes away.\n");
  json.WriteFromEnv();
  return 0;
}
