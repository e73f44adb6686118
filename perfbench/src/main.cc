// The benchmark harness entry point:
//
//   perfbench --workload ingest|report|views --seed N --seconds S
//             --trace 0|1 [--probe 0|1] [--trace-out FILE]
//
// Runs the harness self-test, then the workload's timed loop (or, with
// --probe 1, its short fixed probe) and its output checks. Prints the
// sequence digests, then as its last line one JSON object with the
// values of the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) this process measured. perfbench/run.py merges the main
// run and the probes into the workload's full record and attaches the
// units BENCHMARK.json gives.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

/// One process's per-layer metrics: only those it has observations
/// for. run.py merges the processes of a run and attaches the units.
std::map<std::string, double> LayerValues(const Layers& l) {
  std::map<std::string, double> v;
  auto median = [&](const char* metric, const char* key, double scale) {
    auto it = l.samples.find(key);
    if (it != l.samples.end()) v[metric] = Median(it->second) * scale;
  };
  auto total = [&](const char* key) {
    auto it = l.totals.find(key);
    return it == l.totals.end() ? 0.0 : it->second;
  };
  auto ratio = [&](const char* metric, const char* num, const char* den) {
    if (l.totals.count(num) && total(den) > 0) {
      v[metric] = total(num) / total(den);
    }
  };
  median("server.commit_ms", "server.commit", 1e-3);
  ratio("server.commit_share", "server.commit", "op_us");
  median("server.pin_us", "server.pin", 1);
  median("server.release_us", "server.release", 1);
  median("server.register_ms", "server.register", 1e-3);
  median("server.master_versions", "server.master_versions", 1);
  median("sql.parse_us", "sql.parse", 1);
  median("query.optimize_us", "query.optimize", 1);
  median("query.compile_us", "query.compile", 1);
  median("query.drain_ms", "query.drain", 1e-3);
  // The exchange counts and busy cores come from report's 4-worker
  // reference query; every other per-SELECT figure from the timed,
  // serial SELECTs.
  ratio("query.drain_busy_cores", "reference.drain_cpu_s",
        "reference.drain_wall_s");
  ratio("query.routed_per_select", "reference.hits.repartition_route",
        "reference.n");
  ratio("query.handoffs_per_select", "reference.hits.gather_handoff",
        "reference.n");
  ratio("query.rows_out", "select.rows", "select.n");
  ratio("query.index_builds_per_select", "select.hits.index_build",
        "select.n");
  ratio("query.materializations_per_select", "select.hits.exec_materialize",
        "select.n");
  ratio("query.batches_per_select", "select.hits.exec_next", "select.n");
  ratio("query.opens_per_select", "select.hits.exec_open", "select.n");
  median("query.view_create_ms", "query.view_create", 1e-3);
  median("query.refresh_join_delta_ms", "query.refresh_join_delta", 1e-3);
  median("query.refresh_join_recompute_ms", "query.refresh_join_recompute",
         1e-3);
  median("query.refresh_filter_ms", "query.refresh_filter", 1e-3);
  ratio("query.delta_applies_per_round", "round_hits.view_delta_apply",
        "rounds");
  ratio("query.refresh_delta_share_join", "refresh_delta.join", "rounds");
  ratio("query.refresh_delta_share_filter", "refresh_delta.filter", "rounds");
  if (l.totals.count("view_rows")) v["query.view_rows"] = total("view_rows");
  median("relation.instantiate_join_ms", "relation.instantiate_join", 1e-3);
  median("relation.instantiate_filter_ms", "relation.instantiate_filter",
         1e-3);
  median("relation.modify_ms", "relation.modify", 1e-3);
  median("datasets.generate_ms", "datasets.generate", 1e-3);
  ratio("trace.uncovered_share", "uncovered_us", "op_us");
  return v;
}

/// `c` with every sample scaled to the reference host (see HostSpeed).
LatencyClass Scaled(const LatencyClass& c, const HostSpeed& speed) {
  LatencyClass scaled = c;
  for (size_t i = 0; i < c.ms.size(); ++i) {
    scaled.ms[i] *= speed.Factor(c.at_us[i], c.at_us[i]);
  }
  return scaled;
}

/// Adds the end-to-end metrics this process measured to `report`: the
/// main loop's set-up and resource metrics, then the percentiles of
/// each class it has samples of. Times are scaled to the reference host
/// when `scaled`, else left as measured.
void AddEndToEnd(const Run& run, const Classes& classes, bool main_loop,
                 bool scaled, Report* report) {
  const HostSpeed& speed = run.speed;
  auto factor = [&](double start_us, double end_us) {
    return scaled ? speed.Factor(start_us, end_us) : 1.0;
  };
  if (main_loop) {
    std::vector<double> setup_s, ops_per_s, cpu_ms_per_op;
    for (const Timing& t : run.setups) {
      setup_s.push_back(t.s * factor(t.start_us, t.end_us));
    }
    for (const Epoch& e : run.epochs) {
      if (e.traced) continue;
      const double f = factor(e.start_us, e.end_us);
      ops_per_s.push_back(e.ops / (e.wall_us * 1e-6 * f));
      cpu_ms_per_op.push_back(e.cpu_s * 1e3 / e.ops * f);
    }
    report->Add("setup_s", Median(setup_s));
    report->Add("ops_per_s", Median(ops_per_s));
    report->Add("cpu_ms_per_op", Median(cpu_ms_per_op));
    report->Add("peak_rss_mb", run.peak_rss_mb);
  }
  for (const auto& [prefix, c] :
       {std::pair{"select", &classes.select}, {"commit", &classes.commit},
        {"fresh", &classes.fresh}, {"poll", &classes.poll}}) {
    if (c->ms.empty()) continue;
    report->AddPercentiles(prefix, scaled ? Scaled(*c, speed) : *c);
  }
}

/// Traced over untraced mean op time of the main loop's epochs, both
/// scaled to the reference host; 0 without both kinds.
double TraceOverhead(const Run& run) {
  double us[2] = {0, 0}, ops[2] = {0, 0};
  for (const Epoch& e : run.epochs) {
    us[e.traced] += e.wall_us * run.speed.Factor(e.start_us, e.end_us);
    ops[e.traced] += e.ops;
  }
  if (ops[0] == 0 || ops[1] == 0) return 0;
  return (us[1] / ops[1]) / (us[0] / ops[0]);
}

void WriteSpans(const Tracer& tracer, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const Span& s : tracer.spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"op\": %llu}\n",
                 s.name, s.start_us, s.end_us, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fclose(f);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|report|views --seed N "
               "--seconds S --trace 0|1 [--probe 0|1] [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  std::string workload, trace_out;
  bool probe = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--probe") {
      probe = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return Usage();

  Run run(args);
  run.report.Check(RunSelfTest() == 0, "the harness self-test failed");
  for (int i = 0; i < 3; ++i) run.Calibrate();
  run.Trace(args.trace);
  const Scale scale = probe ? Scale::kProbe : Scale::kMain;
  Classes classes;
  if (workload == "ingest") {
    RunIngest(&run, scale, &classes);
  } else if (workload == "report") {
    RunReport(&run, scale, &classes);
  } else if (workload == "views") {
    RunViews(&run, scale, &classes);
  } else {
    return Usage();
  }
  run.Trace(false);

  // A last calibration, so the last ops have one after them too.
  run.Calibrate();

  // Only the metrics this process measured; run.py completes the record
  // from the probes of the classes and layers outside the workload's own
  // loop.
  Report& report = run.report;
  std::vector<double> kernel_ms;
  for (const Calibration& c : run.speed.points()) kernel_ms.push_back(c.ms);
  std::printf("host calibrations=%zu kernel_ms median=%.3f min=%.3f "
              "max=%.3f\n",
              kernel_ms.size(), Median(kernel_ms),
              *std::min_element(kernel_ms.begin(), kernel_ms.end()),
              *std::max_element(kernel_ms.begin(), kernel_ms.end()));
  if (!args.trace) {
    for (const auto& [prefix, c] :
         {std::pair{"select", &classes.select}, {"commit", &classes.commit},
          {"fresh", &classes.fresh}, {"poll", &classes.poll}}) {
      if (c->ms.empty()) continue;
      std::printf("class %s samples=%zu\n", prefix, c->ms.size());
    }
    // The times as measured, unscaled, for the log.
    Report raw;
    AddEndToEnd(run, classes, !probe, false, &raw);
    for (const Metric& m : raw.metrics) {
      std::printf("unscaled %s=%.6g\n", m.name.c_str(), m.value);
    }
    AddEndToEnd(run, classes, !probe, true, &report);
  } else {
    std::map<std::string, double> layers = LayerValues(run.layers);
    if (!probe) {
      layers["proc.minflt_per_op"] =
          run.untraced_ops > 0 ? run.minflt / run.untraced_ops : 0;
      if (const double overhead = TraceOverhead(run); overhead > 0) {
        layers["trace.overhead"] = overhead;
      }
    }
    for (const auto& [name, value] : layers) report.Add(name, value);
    if (!trace_out.empty()) WriteSpans(run.tracer, trace_out);
  }

  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
