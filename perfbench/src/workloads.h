// The three workloads and the state one benchmark run accumulates.
//
// Every workload is a closed loop with one client thread. Its op
// sequence is generated from the seed before any timing starts, and its
// timed loop runs in epochs: each epoch replays the same op sequence
// from the same freshly set-up state, so two builds of the engine do
// identical work per epoch however fast they are. Run::MoreEpochs
// decides how many epochs run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/time.h"
#include "harness.h"
#include "query/exec_context.h"
#include "relation/relation.h"
#include "server/catalog.h"
#include "server/session.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The op classes the end-to-end latencies are reported for.
struct Classes {
  LatencyClass select;
  /// INSERT (0) vs the by-ID DELETE/UPDATE modifications (1).
  LatencyClass commit{2};
  /// Rounds that write only the outer side (0) vs rounds that also
  /// write the join's inner side (1).
  LatencyClass fresh{2};
  LatencyClass poll;
};

/// One timed epoch of a main loop, the calibrations run inside it left
/// out. main.cc scales its times to the reference host at the end.
struct Epoch {
  bool traced;
  double ops;
  double wall_us;
  double cpu_s;
  double start_us, end_us;
};

/// A time measured over [start_us, end_us], scaled at the end.
struct Timing {
  double s;
  double start_us, end_us;
};

/// Per-layer observations of a traced run, keyed by span or metric
/// name.
struct Layers {
  /// Per-op values, reported as their median.
  std::map<std::string, std::vector<double>> samples;
  /// Running totals for ratios.
  std::map<std::string, double> totals;

  void Sample(const std::string& key, double value) {
    samples[key].push_back(value);
  }
  void Total(const std::string& key, double value) { totals[key] += value; }

  /// Folds the spans recorded since `first` (one op, or one set-up
  /// step) into per-name self-time samples in microseconds. Root spans
  /// named "op.*" also add to the op-time totals.
  void AddSpans(const Tracer& tracer, size_t first);
};

/// State of one benchmark invocation.
struct Run {
  explicit Run(const RunArgs& a) : args(a), tracer(a.trace) {}

  RunArgs args;
  Report report;
  std::vector<Timing> setups;
  std::vector<Epoch> epochs;
  /// Of the untraced epochs, for the per-layer metrics.
  double minflt = 0, untraced_ops = 0;
  double peak_rss_mb = 0;
  HostSpeed speed;
  Tracer tracer;
  Layers layers;
  uint64_t next_op = 0;

  /// Turns tracing on or off: span recording and failpoint hit counting
  /// together, so untraced ops run with every site on its fast path.
  void Trace(bool on);

  /// Counts one attempted op and, when it failed, records why.
  void CountOp(bool ok, const std::string& what);

  /// Runs the calibration kernel.
  void Calibrate() {
    report.Check(speed.Calibrate(),
                 "the calibration kernel changed its result");
  }
  /// Runs the calibration kernel when it is due. Workloads call it
  /// between ops and before each set-up, never inside a timed span.
  void BetweenOps() {
    if (speed.Due()) Calibrate();
  }

  /// Marks the start of a set-up, after a calibration when one is due.
  void BeginSetup() {
    BetweenOps();
    setup_spent_us_ = speed.spent_us();
    setup_start_us_ = NowUs();
  }
  /// Records the set-up begun last, the calibrations its warm-up ran
  /// left out.
  void EndSetup() {
    const double end_us = NowUs();
    const double us =
        end_us - setup_start_us_ - (speed.spent_us() - setup_spent_us_);
    setups.push_back(Timing{us * 1e-6, setup_start_us_, end_us});
  }

  /// Whether a loop runs epoch `epoch` after `timed_us` of timed
  /// epochs. A probe runs exactly once. The main loop runs at least
  /// `min_epochs`, which the workload sets to give each of its classes
  /// 100 samples however slow the build is (and trace runs at least one
  /// untraced and one traced epoch), then each further epoch that the
  /// mean epoch so far expects to end within the time budget.
  bool MoreEpochs(bool main_loop, int epoch, double timed_us,
                  int min_epochs) const {
    if (!main_loop) return epoch == 0;
    if (epoch < std::max(min_epochs, args.trace ? 2 : 1)) return true;
    return timed_us * (epoch + 1) / epoch <= args.seconds * 1e6;
  }

  /// Marks the start of a timed epoch.
  void BeginEpoch() {
    epoch_proc_ = ReadProc();
    epoch_spent_us_ = speed.spent_us();
    epoch_spent_ = speed.spent();
    epoch_start_us_ = NowUs();
  }

  /// Ends the epoch begun last; returns its wall time, calibrations
  /// included. A main loop's epochs are kept: untraced ones feed the
  /// end-to-end loop metrics, both kinds the trace overhead.
  double EndEpoch(bool main_loop, bool traced, size_t ops) {
    const double end_us = NowUs();
    const ProcStats b = ReadProc();
    const double wall_us = end_us - epoch_start_us_;
    if (!main_loop) return wall_us;
    const ProcStats& spent = speed.spent();
    epochs.push_back(Epoch{
        traced, static_cast<double>(ops),
        wall_us - (speed.spent_us() - epoch_spent_us_),
        b.cpu_s - epoch_proc_.cpu_s - (spent.cpu_s - epoch_spent_.cpu_s),
        epoch_start_us_, end_us});
    if (!traced) {
      minflt += b.minflt - epoch_proc_.minflt -
                (spent.minflt - epoch_spent_.minflt);
      untraced_ops += static_cast<double>(ops);
      peak_rss_mb = b.maxrss_mb - static_cast<double>(kKernelArenaBytes >> 20);
    }
    return wall_us;
  }

 private:
  ProcStats epoch_proc_, epoch_spent_;
  double epoch_spent_us_ = 0, epoch_start_us_ = 0;
  double setup_spent_us_ = 0, setup_start_us_ = 0;
};

/// Where a workload's classes come from: the full-size timed loop, or a
/// short fixed-size probe that gives every run a measurement of every
/// class (see README.md, "Classes outside a workload's mix").
enum class Scale { kMain, kProbe };

/// `ingest`: commits and point SELECTs through one server::Session.
/// Fills `out->commit` and `out->select`.
void RunIngest(Run* run, Scale scale, Classes* out);

/// `report`: the equi+overlaps join of two read-only tables through one
/// Session. Fills `out->select`. The probe only runs the 4-worker
/// reference query, which a traced run of another workload uses for
/// the exchange counts.
void RunReport(Run* run, Scale scale, Classes* out);

/// `views`: Torp modifications, Refresh() of two materialized views and
/// InstantiateAt polls. Fills `out->fresh` and `out->poll`.
void RunViews(Run* run, Scale scale, Classes* out);

/// "yyyy/mm/dd" for a day-granularity time point.
std::string DateString(ongoingdb::TimePoint t);

/// The multiset of a relation's tuples, rendered and sorted.
std::vector<std::string> SortedRows(const ongoingdb::OngoingRelation& r);

/// Runs one SQL statement with the public calls Session::Execute makes,
/// in its order, each inside a span: PinSnapshot + View, ParseStatement
/// (+ ParseQuery), Optimize, Compile, DrainToRelation, or the Catalog
/// commit method. A SELECT's failpoint hits, rows and drain CPU go to
/// `run->layers` under `<counts>.`: "select" for the timed SELECTs,
/// "reference" for report's 4-worker reference query.
ongoingdb::Result<ongoingdb::server::ExecResult> TracedExecute(
    Run* run, ongoingdb::server::Catalog* catalog,
    ongoingdb::QueryContext* ctx, size_t workers, const std::string& sql,
    const std::string& counts = "select");

}  // namespace perfbench
