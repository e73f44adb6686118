// Reproduces Fig. 9 of the paper: the effect of the *location* of the
// ongoing time intervals on the runtime of the join Q^join_ovlp. The
// 10-year history is divided into 5 segments; all fixed endpoints of the
// ongoing intervals are placed into one segment at a time. Three
// configurations are measured per segment: the ongoing approach,
// Cliff_max, and the "w/out ongoing intervals" baseline (all intervals
// fixed) that establishes the runtime floor.
//
// Paper's findings: for Dex (expanding) the ongoing runtime falls as the
// segment moves later; for Dsh (shrinking) it rises; the baseline
// accounts for 80-90% of the ongoing runtime (join processing dominates,
// ongoing overhead < 20%).
//
// Beyond the paper: the same location sweep applied to the selection
// Q^sigma_ovlp with a fixed probe in the last segment. Set
// ONGOINGDB_BENCH_JSON to additionally emit machine-readable records.
#include <cstdio>

#include "baselines/clifford.h"
#include "bench_common.h"

using namespace ongoingdb;
using namespace ongoingdb::bench;

namespace {

void RunLocation(const char* title, const char* kind_label,
                 datasets::OngoingKind kind, BenchJsonWriter* json) {
  std::printf("\n%s\n", title);
  TablePrinter table;
  table.SetHeader({"Ongoing segment", "w/out ongoing [ms]", "ongoing [ms]",
                   "Cliff_max [ms]", "sel scan [ms]"});
  const int64_t n = Scaled(20000);
  for (int segment = 0; segment < 5; ++segment) {
    datasets::SyntheticOptions options;
    options.cardinality = n;
    options.ongoing_fraction = 0.15;
    options.kind = kind;
    options.ongoing_segment = segment;
    options.key_cardinality = n / 20;  // ~20 tuples per key group
    options.seed = 42 + static_cast<uint64_t>(segment);
    OngoingRelation r = datasets::GenerateSynthetic(options);
    options.seed += 1000;
    OngoingRelation s = datasets::GenerateSynthetic(options);

    PlanPtr plan = JoinPlan(&r, &s, AllenOp::kOverlaps);
    const TimePoint cliff_rt = std::max(CliffMax(r), CliffMax(s));
    const double ongoing_ms =
        MedianSeconds([&] { MeasureOngoingMs(plan); }) * 1e3;
    const double clifford_ms =
        MedianSeconds([&] { MeasureCliffordMs(plan, cliff_rt); }) * 1e3;

    // Baseline: the same join on data with all ongoing intervals
    // replaced by their instantiations at Cliff_max (no ongoing
    // processing, no RT bookkeeping).
    OngoingRelation r_fixed = StripOngoing(r, cliff_rt);
    OngoingRelation s_fixed = StripOngoing(s, cliff_rt);
    PlanPtr fixed_plan = JoinPlan(&r_fixed, &s_fixed, AllenOp::kOverlaps);
    const double baseline_ms =
        MedianSeconds([&] { MeasureOngoingMs(fixed_plan); }) * 1e3;

    // Selection Q^sigma_ovlp with a fixed probe spanning the last 10%
    // of r's history: the segment location moves the data relative to
    // the probe.
    auto probe = SelectionInterval(r);
    if (!probe.ok()) {
      std::fprintf(stderr, "selection interval failed: %s\n",
                   probe.status().ToString().c_str());
      std::exit(1);
    }
    PlanPtr scan_plan = SelectionPlan(&r, AllenOp::kOverlaps, *probe);
    const double sel_scan_ms =
        MedianSeconds([&] { MeasureOngoingMs(scan_plan); }) * 1e3;

    table.AddRow({std::to_string(segment), FormatDouble(baseline_ms, 2),
                  FormatDouble(ongoing_ms, 2), FormatDouble(clifford_ms, 2),
                  FormatDouble(sel_scan_ms, 2)});
    const std::string key =
        std::string(kind_label) + "/segment=" + std::to_string(segment);
    json->AddMs("join_location/baseline/" + key, baseline_ms);
    json->AddMs("join_location/ongoing/" + key, ongoing_ms);
    json->AddMs("join_location/cliff_max/" + key, clifford_ms);
    json->AddMs("selection_location/scan/" + key, sel_scan_ms);
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf("Fig. 9: Location of ongoing time intervals "
              "(Q^join_ovlp, 5 segments of a 10-year history; plus "
              "Q^sigma_ovlp per segment)\n");
  BenchJsonWriter json("fig09_location");
  RunLocation("(a) Q^join_ovlp on Dex (expanding [a, now))", "dex",
              datasets::OngoingKind::kExpanding, &json);
  RunLocation("(b) Q^join_ovlp on Dsh (shrinking [now, b))", "dsh",
              datasets::OngoingKind::kShrinking, &json);
  json.WriteFromEnv();
  return 0;
}
