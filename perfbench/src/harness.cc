#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstddef>
#include <limits>
#include <memory_resource>
#include <new>
#include <unordered_map>
#include <vector>

#include "util/failpoint.h"

namespace perfbench {

uint64_t SeqRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t SeqRng::Uniform(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- percentiles --------------------------------------------------------------

std::optional<double> PercentileWithTail(std::vector<double> samples,
                                         double p) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least p*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  const double lower = *std::max_element(v.begin(), v.begin() + mid);
  return (lower + upper) / 2;
}

double ShareBoundaryDistance(const LatencyClass& c, double p) {
  struct ShapeStat {
    double median;
    size_t count;
  };
  std::vector<ShapeStat> stats;
  for (size_t s = 0; s < c.shapes; ++s) {
    std::vector<double> of_shape;
    for (size_t i = 0; i < c.ms.size(); ++i) {
      if (c.shape[i] == s) of_shape.push_back(c.ms[i]);
    }
    if (!of_shape.empty()) {
      stats.push_back(ShapeStat{Median(of_shape), of_shape.size()});
    }
  }
  std::sort(stats.begin(), stats.end(),
            [](const ShapeStat& a, const ShapeStat& b) {
              return a.median < b.median;
            });
  double distance = std::numeric_limits<double>::infinity();
  size_t below = 0;
  for (size_t i = 0; i + 1 < stats.size(); ++i) {
    below += stats[i].count;
    const double boundary = 100.0 * static_cast<double>(below) /
                            static_cast<double>(c.ms.size());
    distance = std::min(distance, std::fabs(100.0 * p - boundary));
  }
  return distance;
}

void Report::AddPercentiles(const std::string& prefix,
                            const LatencyClass& c) {
  for (const auto& [p, label] : {std::pair{0.5, "p50"}, {0.9, "p90"}}) {
    const std::string name = prefix + "_" + label + "_ms";
    std::optional<double> value = PercentileWithTail(c.ms, p);
    Check(value.has_value(),
          name + ": " + std::to_string(c.ms.size()) +
              " samples leave fewer than 10 beyond the percentile");
    const double distance = ShareBoundaryDistance(c, p);
    Check(distance >= kMinBoundaryPoints,
          name + " lies " + std::to_string(distance) +
              " points from an op-shape share boundary");
    Add(name, value.value_or(0));
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": " + value;
  }
  out += "}}";
  return out;
}

// --- host speed ---------------------------------------------------------------

namespace {

constexpr int64_t kKernelRows = 40000;
constexpr int64_t kKernelKeys = 10000;

/// The calibration kernel: the report join's shape on plain C++ data. It
/// builds two fixed 40,000-row relations of separately allocated rows
/// (id, key, start, end), hash-joins them on key equality and interval
/// overlap into separately allocated result rows and sorts the result,
/// so it chases pointers and hashes over a few MB as the engine's ops
/// do. Everything lives in one arena that the process keeps, so every
/// run touches the same addresses whatever state the engine left the
/// heap in. About 13.5 ms on the reference host. Returns the result
/// size.
size_t CalibrationKernel() {
  // Zeroed, so all of it is resident from the first run on.
  static std::vector<std::byte> arena(kKernelArenaBytes);
  std::pmr::monotonic_buffer_resource memory(
      arena.data(), arena.size(), std::pmr::null_memory_resource());
  using Row = std::pmr::vector<int64_t>;
  SeqRng rng(42);
  auto relation = [&] {
    std::pmr::vector<Row*> rows(&memory);
    rows.reserve(kKernelRows);
    for (int64_t id = 0; id < kKernelRows; ++id) {
      const int64_t start = rng.Uniform(0, 3999);
      Row* row = static_cast<Row*>(memory.allocate(sizeof(Row), alignof(Row)));
      rows.push_back(new (row) Row({id, rng.Uniform(0, kKernelKeys - 1), start,
                                    start + 1 + rng.Uniform(0, 399)},
                                   &memory));
    }
    return rows;
  };
  const std::pmr::vector<Row*> left = relation();
  const std::pmr::vector<Row*> right = relation();
  std::pmr::unordered_multimap<int64_t, const Row*> by_key(&memory);
  by_key.reserve(right.size());
  for (const Row* r : right) by_key.emplace((*r)[1], r);
  std::pmr::vector<Row> out(&memory);
  for (const Row* l : left) {
    const auto [lo, hi] = by_key.equal_range((*l)[1]);
    for (auto it = lo; it != hi; ++it) {
      const Row& r = *it->second;
      if ((*l)[2] < r[3] && r[2] < (*l)[3]) {
        out.push_back(Row({(*l)[0], r[0]}, &memory));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out.size();
}

}  // namespace

bool HostSpeed::Calibrate() {
  // The first run faults the kernel's heap in; it is not a sample.
  if (first_result_ == 0) first_result_ = CalibrationKernel();
  const ProcStats a = ReadProc();
  const double t0 = NowUs();
  const size_t result = CalibrationKernel();
  const double t1 = NowUs();
  const ProcStats b = ReadProc();
  points_.push_back(Calibration{(t0 + t1) / 2, (t1 - t0) * 1e-3});
  last_us_ = t1;
  spent_us_ += t1 - t0;
  spent_.cpu_s += b.cpu_s - a.cpu_s;
  spent_.minflt += b.minflt - a.minflt;
  return result == first_result_;
}

double ScaleFactor(const std::vector<Calibration>& points, double start_us,
                   double end_us) {
  if (points.empty()) return 1;
  auto before = [&](double t) {
    return static_cast<size_t>(
        std::lower_bound(points.begin(), points.end(), t,
                         [](const Calibration& c, double at) {
                           return c.at_us < at;
                         }) -
        points.begin());
  };
  size_t lo = before(start_us - kCalibrationWindowUs);
  size_t hi = before(end_us + kCalibrationWindowUs);
  // Too few within the window: widen to the three nearest.
  const double mid = (start_us + end_us) / 2;
  while (hi - lo < 3 && hi - lo < points.size()) {
    if (lo > 0 && (hi == points.size() ||
                   mid - points[lo - 1].at_us < points[hi].at_us - mid)) {
      --lo;
    } else {
      ++hi;
    }
  }
  std::vector<double> ms;
  for (size_t i = lo; i < hi; ++i) ms.push_back(points[i].ms);
  return kReferenceCalibrationMs / Median(ms);
}

// --- spans --------------------------------------------------------------------

int Tracer::Begin(const char* name, uint64_t op) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowUs(), 0, parent, op});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_us = NowUs();
  open_.pop_back();
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      const double lo = std::max(s.start_us, spans[c].start_us);
      const double hi = std::min(s.end_us, spans[c].end_us);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0;
    double run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_us += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_us += run_hi - run_lo;
    self[i] = (s.end_us - s.start_us) - union_us;
  }
  return self;
}

// --- failpoint hit counters -------------------------------------------------

namespace {

constexpr std::array<const char*, kNumSites> kSiteNames = {
    "catalog.commit",  "session.snapshot_pin", "exec.open",
    "exec.next",       "exec.materialize",     "gather.handoff",
    "index.build",     "repartition.route",    "view.delta_apply",
};

// The sites, resolved once; a site the engine no longer plants is null.
const std::array<ongoingdb::Failpoint*, kNumSites>& Sites() {
  static const std::array<ongoingdb::Failpoint*, kNumSites> sites = [] {
    std::array<ongoingdb::Failpoint*, kNumSites> found{};
    for (size_t i = 0; i < kNumSites; ++i) {
      found[i] = ongoingdb::Failpoint::Find(kSiteNames[i]);
    }
    return found;
  }();
  return sites;
}

}  // namespace

bool ArmCounting() {
  bool all = true;
  for (ongoingdb::Failpoint* fp : Sites()) {
    if (fp == nullptr) {
      all = false;
    } else {
      fp->ArmAfterHits(UINT64_MAX);
    }
  }
  return all;
}

void DisarmCounting() {
  for (ongoingdb::Failpoint* fp : Sites()) {
    if (fp != nullptr) fp->Disarm();
  }
}

Hits ReadHits() {
  Hits hits{};
  for (size_t i = 0; i < kNumSites; ++i) {
    if (ongoingdb::Failpoint* fp = Sites()[i]) hits[i] = fp->hits();
  }
  return hits;
}

Hits operator-(const Hits& a, const Hits& b) {
  Hits d{};
  for (size_t i = 0; i < kNumSites; ++i) d[i] = a[i] - b[i];
  return d;
}

// --- process resources --------------------------------------------------------

ProcStats ReadProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcStats s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  s.minflt = static_cast<double>(ru.ru_minflt);
  return s;
}

}  // namespace perfbench
