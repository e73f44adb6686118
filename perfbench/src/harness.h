// Shared machinery of the benchmark harness: the seeded sequence RNG,
// latency classes and the percentile rules the report must satisfy,
// the host-speed gauge every reported time is scaled by, in-memory
// spans with self time, failpoint hit counters, process resource
// readings and the result record.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64. The op sequences are drawn from this generator, not from
/// the library's, so a change to the library can never change the
/// sequence the benchmark replays.
class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi);
  /// Shuffles `v` in place (Fisher-Yates).
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(
                                 Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
  }

 private:
  uint64_t state_;
};

/// FNV-1a over a byte string, chained through `h`.
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ULL);

// --- latency classes and the percentile rules -------------------------------

/// Samples fewer than this beyond a percentile make it unreportable.
constexpr size_t kMinBeyond = 10;
/// A reported percentile must lie at least this many points away from
/// every op-shape share boundary of its class.
constexpr double kMinBoundaryPoints = 10.0;

/// The latency samples of one op class, each tagged with its op shape
/// (e.g. INSERT vs DELETE/UPDATE within the commit class), a number
/// below `shapes`, and with the time it was taken at.
struct LatencyClass {
  size_t shapes;
  std::vector<double> ms;
  std::vector<uint8_t> shape;
  std::vector<double> at_us;

  explicit LatencyClass(size_t shape_count = 1) : shapes(shape_count) {}
  void Add(double sample_ms, uint8_t shape_index, double taken_at_us = 0) {
    ms.push_back(sample_ms);
    shape.push_back(shape_index);
    at_us.push_back(taken_at_us);
  }
};

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, or nullopt
/// when fewer than kMinBeyond samples lie above its rank.
std::optional<double> PercentileWithTail(std::vector<double> samples,
                                         double p);

/// Distance in percentage points from percentile `p` to the nearest
/// share boundary between op shapes, the shapes ordered by their median
/// latency. Infinity when the class has a single shape.
double ShareBoundaryDistance(const LatencyClass& c, double p);

// --- spans --------------------------------------------------------------------

/// One traced interval. `parent` is the index of the enclosing span
/// (-1 for an op's root span); spans of one op share `op`.
struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;
  uint64_t op;
};

/// Records spans in memory. While disabled it records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Switches recording; only between ops, with no span open.
  void Enable(bool on) { enabled_ = on; }
  /// Opens a span as a child of the innermost open span.
  int Begin(const char* name, uint64_t op);
  void End(int id);
  /// Renames a recorded span (e.g. after learning which path it took).
  void Rename(int id, const char* name) {
    if (id >= 0) spans_[static_cast<size_t>(id)].name = name;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

// --- failpoint hit counters -------------------------------------------------

/// The failpoint sites the engine plants, in the order ReadHits reports.
enum Site : size_t {
  kCatalogCommit,
  kSnapshotPin,
  kExecOpen,
  kExecNext,
  kExecMaterialize,
  kGatherHandoff,
  kIndexBuild,
  kRepartitionRoute,
  kViewDeltaApply,
  kNumSites,
};
using Hits = std::array<uint64_t, kNumSites>;

/// Arms every site to count hits and never fail. Arming takes each site
/// off its one-load fast path, so only traced runs arm.
bool ArmCounting();
void DisarmCounting();
Hits ReadHits();
Hits operator-(const Hits& a, const Hits& b);

// --- process resources --------------------------------------------------------

struct ProcStats {
  double cpu_s = 0;      ///< user + system CPU of every thread
  double maxrss_mb = 0;  ///< peak resident set so far
  double minflt = 0;     ///< minor page faults so far
};
ProcStats ReadProc();

// --- host speed ---------------------------------------------------------------

/// The calibration kernel's time on the reference host. Every reported
/// time is scaled to a host that runs the kernel in this time.
constexpr double kReferenceCalibrationMs = 13.5;
/// A time is scaled by the calibrations within this distance of it.
constexpr double kCalibrationWindowUs = 1e6;

/// One run of the calibration kernel: its midpoint and its time.
struct Calibration {
  double at_us;
  double ms;
};

/// The factor that scales a time measured over [start_us, end_us] to
/// the reference host: kReferenceCalibrationMs over the median kernel
/// time of the calibrations within kCalibrationWindowUs of the span, or
/// of the three nearest when fewer lie there; 1 without calibrations.
/// `points` are in time order.
double ScaleFactor(const std::vector<Calibration>& points, double start_us,
                   double end_us);

/// The calibration kernel's arena. It is resident from the first
/// calibration on, so peak_rss_mb leaves it out; the kernel uses < 8 MB.
constexpr size_t kKernelArenaBytes = size_t{12} << 20;

/// How fast the shared host runs the harness's own calibration kernel,
/// over time. On a shared host the same engine op runs up to 2x slower
/// for minutes at a time, and its CPU time grows with its wall time, so
/// no host-side wait explains it; every op and the kernel slow down
/// together. The workloads run the kernel between ops, and each
/// reported time is scaled by the kernel's speed around it. The kernel
/// calls no engine code and allocates from its own arena, so no engine
/// change moves it; an engine change moves the scaled times as it moves
/// the raw ones.
class HostSpeed {
 public:
  /// Calibrations at least this far apart, between ops.
  static constexpr double kIntervalUs = 250e3;

  /// Runs the kernel now. Returns false when it computed another result
  /// than its first run did.
  bool Calibrate();
  /// Whether the last calibration is kIntervalUs old.
  bool Due() const { return NowUs() - last_us_ >= kIntervalUs; }
  /// ScaleFactor over the calibrations so far.
  double Factor(double start_us, double end_us) const {
    return ScaleFactor(points_, start_us, end_us);
  }

  const std::vector<Calibration>& points() const { return points_; }
  /// Wall time, CPU time and page faults of the kernel so far; timed
  /// epochs leave them out.
  double spent_us() const { return spent_us_; }
  const ProcStats& spent() const { return spent_; }

 private:
  std::vector<Calibration> points_;
  double last_us_ = -kIntervalUs;
  double spent_us_ = 0;
  ProcStats spent_;
  size_t first_result_ = 0;
};

// --- the result record --------------------------------------------------------

/// A measured value; run.py attaches the unit BENCHMARK.json gives it.
struct Metric {
  std::string name;
  double value;
};

/// Everything one run reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed output checks and refused percentiles; any entry makes the
  /// run incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void Add(const std::string& name, double value) {
    metrics.push_back(Metric{name, value});
  }
  /// Adds `<prefix>_p50_ms` and `<prefix>_p90_ms` for `c`, enforcing
  /// the tail-sample and share-boundary rules.
  void AddPercentiles(const std::string& prefix, const LatencyClass& c);
  std::string ToJson() const;
};

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// Runs the harness self-test; returns the number of failures.
int RunSelfTest();

}  // namespace perfbench
