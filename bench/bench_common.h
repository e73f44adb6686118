// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures. Each bench binary prints the same rows/series the
// paper reports; absolute runtimes differ from the paper's PostgreSQL
// testbed, but the shapes (who wins, break-even counts, trends) carry
// over.
//
// All benches are laptop-scale by default. Set ONGOINGDB_BENCH_SCALE to
// a positive float to multiply the data sizes (e.g. 0.2 for a quick
// smoke run, 5 for a longer one).
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/clifford.h"
#include "datasets/incumbent.h"
#include "datasets/mozilla.h"
#include "datasets/synthetic.h"
#include "query/executor.h"
#include "query/materialized_view.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace ongoingdb {
namespace bench {

/// The global size multiplier from ONGOINGDB_BENCH_SCALE (default 1.0).
inline double Scale() {
  const char* env = std::getenv("ONGOINGDB_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

/// size * Scale(), at least 1.
inline int64_t Scaled(int64_t size) {
  double v = static_cast<double>(size) * Scale();
  return v < 1 ? 1 : static_cast<int64_t>(v);
}

/// The fixed selection interval spanning the last `fraction` of the
/// relation's VT history (the paper uses the last 10%).
Result<FixedInterval> SelectionInterval(const OngoingRelation& r,
                                        double fraction = 0.10);

/// The Cliff_max reference time: greater than the latest end point in
/// the data (Sec. IX-A).
inline TimePoint CliffMax(const OngoingRelation& r) {
  return CliffMaxReferenceTime(r);
}

/// Builds the selection plan Q^sigma_pred = sigma_{VT pred [ts,te)}(R),
/// which lowers to the scan-based selection of the paper's testbed.
PlanPtr SelectionPlan(const OngoingRelation* r, AllenOp pred,
                      FixedInterval interval);

/// Builds the join plan Q^join_pred = R |x|_{L.K = R.K ^ L.VT pred R.VT} S.
PlanPtr JoinPlan(const OngoingRelation* r, const OngoingRelation* s,
                 AllenOp pred);

/// Builds the paper's complex join QC (Sec. IX-A) over MozillaBugs:
/// assignments joined with major severities on bug id and overlapping
/// valid times, with bug info, and with similar bugs (same product,
/// component, OS) whose valid time satisfies `pred`.
PlanPtr ComplexJoinPlan(const datasets::MozillaBugs* data, AllenOp pred);

/// Milliseconds to run a plan with ongoing semantics.
double MeasureOngoingMs(const PlanPtr& plan, size_t* result_size = nullptr);

/// Milliseconds to run a plan with Clifford semantics at rt.
double MeasureCliffordMs(const PlanPtr& plan, TimePoint rt,
                         size_t* result_size = nullptr);

/// Milliseconds to instantiate an already-computed ongoing result at rt.
double MeasureInstantiateMs(const OngoingRelation& ongoing_result,
                            TimePoint rt, size_t* result_size = nullptr);

/// ceil(a / b) with a floor of `min_value`, used for break-even counts.
double BreakEven(double ongoing_ms, double clifford_ms);

// ---------------------------------------------------------------------------
// Machine-readable results. Every bench binary can collect BenchRecords
// and, when ONGOINGDB_BENCH_JSON names a file, write them as JSON — the
// format the committed BENCH_*.json baselines use, so perf PRs can be
// compared run over run.
// ---------------------------------------------------------------------------

/// One measured operation. Allocation fields are reported only when the
/// binary links the counting allocator (negative means "not measured").
struct BenchRecord {
  std::string name;
  double ns_per_op = 0;
  double ops_per_sec = 0;
  double bytes_per_op = -1;
  double allocs_per_op = -1;
};

/// Collects BenchRecords and renders them as a JSON document
/// {"suite": ..., "git_sha": ..., "build_type": ..., "scale": ...,
/// "hardware_concurrency": ..., "effective_workers": ...,
/// "benchmarks": [...]}. The host's hardware concurrency and the global
/// scheduler's effective worker count are recorded in every suite, so
/// baselines captured on constrained hosts (the PR 3 1-core-container
/// caveat) are machine-readably marked; the commit and build type pin
/// down what a baseline was recorded from (both "unknown" when built
/// outside a git checkout).
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string suite) : suite_(std::move(suite)) {}

  void Add(BenchRecord record) { records_.push_back(std::move(record)); }

  /// Convenience: derives ns/op and ops/sec from a per-operation
  /// duration in milliseconds.
  void AddMs(const std::string& name, double ms, double bytes_per_op = -1,
             double allocs_per_op = -1);

  std::string ToJson() const;

  /// Writes ToJson() to the path in ONGOINGDB_BENCH_JSON, if set.
  /// Returns true iff a file was written.
  bool WriteFromEnv() const;

 private:
  std::string suite_;
  std::vector<BenchRecord> records_;
};

}  // namespace bench
}  // namespace ongoingdb
