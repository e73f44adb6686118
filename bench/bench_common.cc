#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "util/thread_pool.h"

namespace ongoingdb {
namespace bench {

Result<FixedInterval> SelectionInterval(const OngoingRelation& r,
                                        double fraction) {
  ONGOINGDB_ASSIGN_OR_RETURN(size_t vt, r.schema().IndexOf("VT"));
  TimePoint min_p = kMaxInfinity, max_p = kMinInfinity;
  for (const Tuple& t : r.tuples()) {
    const Value& v = t.value(vt);
    if (v.type() != ValueType::kOngoingInterval) continue;
    const OngoingInterval& iv = v.AsOngoingInterval();
    for (TimePoint p : {iv.start().a(), iv.start().b(), iv.end().a(),
                        iv.end().b()}) {
      if (!IsFinite(p)) continue;
      min_p = std::min(min_p, p);
      max_p = std::max(max_p, p);
    }
  }
  if (min_p > max_p) {
    return Status::InvalidArgument("relation has no finite time points");
  }
  TimePoint span = max_p - min_p;
  TimePoint start = max_p - static_cast<TimePoint>(span * fraction);
  return FixedInterval{start, max_p};
}

PlanPtr SelectionPlan(const OngoingRelation* r, AllenOp pred,
                      FixedInterval interval) {
  return Filter(Scan(r, "R"),
                Allen(pred, Col("VT"),
                      Lit(OngoingInterval::Fixed(interval.start,
                                                 interval.end))));
}

PlanPtr JoinPlan(const OngoingRelation* r, const OngoingRelation* s,
                 AllenOp pred) {
  return Join(Scan(r, "R"), Scan(s, "S"),
              And(Eq(Col("L.K"), Col("R.K")),
                  Allen(pred, Col("L.VT"), Col("R.VT"))),
              "L", "R");
}

PlanPtr ComplexJoinPlan(const datasets::MozillaBugs* data, AllenOp pred) {
  // QC: A |x|_{A.ID = S.ID ^ A.VT overlaps S.VT ^ Severity = 'major'} S
  //       |x|_{A.ID = B.ID} B
  //       |x|_{theta_sim ^ A.VT pred B'.VT} B'
  PlanPtr major = Filter(Scan(&data->bug_severity, "S"),
                         Eq(Col("Severity"), Lit("major")));
  PlanPtr a_s = Join(Scan(&data->bug_assignment, "A"), major,
                     And(Eq(Col("A.ID"), Col("S.ID")),
                         OverlapsExpr(Col("A.VT"), Col("S.VT"))),
                     "A", "S");
  PlanPtr with_b = Join(a_s, Scan(&data->bug_info, "B"),
                        Eq(Col("A.ID"), Col("B.ID")), "A", "B");
  PlanPtr similar =
      Join(with_b, Scan(&data->bug_info, "B2"),
           And(And(Eq(Col("B.Product"), Col("B2.Product")),
                   And(Eq(Col("B.Component"), Col("B2.Component")),
                       Eq(Col("B.OS"), Col("B2.OS")))),
               Allen(pred, Col("A.VT"), Col("B2.VT"))),
           "B", "B2");
  return similar;
}

double MeasureOngoingMs(const PlanPtr& plan, size_t* result_size) {
  Timer timer;
  auto result = Execute(plan);
  double ms = timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "ongoing execution failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  if (result_size != nullptr) *result_size = result->size();
  return ms;
}

double MeasureCliffordMs(const PlanPtr& plan, TimePoint rt,
                         size_t* result_size) {
  Timer timer;
  auto result = ExecuteAtReferenceTime(plan, rt);
  double ms = timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "clifford execution failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  if (result_size != nullptr) *result_size = result->size();
  return ms;
}

double MeasureInstantiateMs(const OngoingRelation& ongoing_result,
                            TimePoint rt, size_t* result_size) {
  Timer timer;
  OngoingRelation instantiated = InstantiateRelation(ongoing_result, rt);
  double ms = timer.ElapsedMillis();
  if (result_size != nullptr) *result_size = instantiated.size();
  return ms;
}

double BreakEven(double ongoing_ms, double clifford_ms) {
  if (clifford_ms <= 0) return 0;
  return std::ceil(ongoing_ms / clifford_ms);
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendNumber(const char* key, double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6g", key, v);
  *out += buf;
}

}  // namespace

void BenchJsonWriter::AddMs(const std::string& name, double ms,
                            double bytes_per_op, double allocs_per_op) {
  BenchRecord record;
  record.name = name;
  record.ns_per_op = ms * 1e6;
  record.ops_per_sec = ms > 0 ? 1e3 / ms : 0;
  record.bytes_per_op = bytes_per_op;
  record.allocs_per_op = allocs_per_op;
  Add(std::move(record));
}

std::string BenchJsonWriter::ToJson() const {
  std::string out = "{\n  \"suite\": \"";
  AppendEscaped(suite_, &out);
  out += "\",\n  \"git_sha\": \"";
#ifdef ONGOINGDB_GIT_SHA
  AppendEscaped(ONGOINGDB_GIT_SHA, &out);
#else
  out += "unknown";
#endif
  out += "\",\n  \"build_type\": \"";
#ifdef ONGOINGDB_BUILD_TYPE
  AppendEscaped(ONGOINGDB_BUILD_TYPE, &out);
#else
  out += "unknown";
#endif
  out += "\",\n  ";
  AppendNumber("scale", Scale(), &out);
  out += ",\n  ";
  AppendNumber("hardware_concurrency",
               static_cast<double>(std::thread::hardware_concurrency()), &out);
  out += ",\n  ";
  AppendNumber("effective_workers",
               static_cast<double>(TaskScheduler::DefaultWorkerCount()), &out);
  out += ",\n  \"benchmarks\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    AppendEscaped(r.name, &out);
    out += "\", ";
    AppendNumber("ns_per_op", r.ns_per_op, &out);
    out += ", ";
    AppendNumber("ops_per_sec", r.ops_per_sec, &out);
    if (r.bytes_per_op >= 0) {
      out += ", ";
      AppendNumber("bytes_per_op", r.bytes_per_op, &out);
    }
    if (r.allocs_per_op >= 0) {
      out += ", ";
      AppendNumber("allocs_per_op", r.allocs_per_op, &out);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool BenchJsonWriter::WriteFromEnv() const {
  const char* path = std::getenv("ONGOINGDB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return false;
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write bench JSON to %s\n", path);
    return false;
  }
  file << ToJson();
  std::printf("bench JSON written to %s\n", path);
  return true;
}

}  // namespace bench
}  // namespace ongoingdb
