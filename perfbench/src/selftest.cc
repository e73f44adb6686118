// Self-test of the harness's own math: the percentile rule, span self
// time with nested children, the share-boundary rule and the window of
// calibrations a time is scaled by. Every run executes it first; a
// failure makes the run incorrect.
#include <cmath>
#include <cstdio>

#include "harness.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  auto p50 = PercentileWithTail(Ramp(100), 0.5);
  Expect(p50 && Near(*p50, 50), "p50 of 1..100 is 50");
  auto p90 = PercentileWithTail(Ramp(100), 0.9);
  Expect(p90 && Near(*p90, 90), "p90 of 1..100 is 90 with 10 beyond");
  Expect(!PercentileWithTail(Ramp(99), 0.9),
         "p90 of 99 samples leaves 9 beyond and is refused");
  Expect(!PercentileWithTail(Ramp(19), 0.5),
         "p50 of 19 samples leaves 9 beyond and is refused");
  Expect(PercentileWithTail(Ramp(20), 0.5).has_value(),
         "p50 of 20 samples leaves 10 beyond");
  Expect(!PercentileWithTail({}, 0.5), "no samples, no percentile");

  Report report;
  LatencyClass few;
  for (int i = 0; i < 50; ++i) few.Add(i, 0);
  report.AddPercentiles("x", few);
  Expect(report.errors.size() == 1, "p90 of 50 samples is refused in a report");
  Expect(report.metrics.size() == 2, "a refused percentile is still named");
}

void TestSelfTime() {
  // root [0,100) with children a [10,40) and b [30,60) that overlap each
  // other, a grandchild g [15,20) under a, and c [90,120) reaching past
  // the root's end. A second op's root r2 [200,210) has no children.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1}, {"a", 10, 40, 0, 1}, {"g", 15, 20, 1, 1},
      {"b", 30, 60, 0, 1},     {"c", 90, 120, 0, 1}, {"r2", 200, 210, -1, 2},
  };
  const std::vector<double> self = SelfTimesUs(spans);
  Expect(Near(self[0], 40), "root self = 100 - |[10,60) u [90,100)|");
  Expect(Near(self[1], 25), "a self = 30 - grandchild 5");
  Expect(Near(self[2], 5), "leaf self = its duration");
  Expect(Near(self[3], 30), "b self = its duration");
  Expect(Near(self[4], 30), "c self is not clipped by its parent");
  Expect(Near(self[5], 10), "a childless root's self = its duration");

  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "outer", 7);
    ScopedSpan inner(&tracer, "inner", 7);
  }
  Expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[0].parent == -1,
         "nested scoped spans link to their parent");
  Tracer off(false);
  { ScopedSpan ignored(&off, "x", 1); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

void TestShareBoundary() {
  // The slow shape is shape 0: the rule orders shapes by median latency,
  // not by index.
  LatencyClass c(2);
  for (int i = 0; i < 30; ++i) c.Add(5.0 + i * 0.01, 0);
  for (int i = 0; i < 70; ++i) c.Add(1.0 + i * 0.01, 1);
  Expect(Near(ShareBoundaryDistance(c, 0.5), 20), "70/30: p50 is 20 away");
  Expect(Near(ShareBoundaryDistance(c, 0.9), 20), "70/30: p90 is 20 away");

  LatencyClass tight(2);
  for (int i = 0; i < 85; ++i) tight.Add(1.0, 0);
  for (int i = 0; i < 15; ++i) tight.Add(5.0, 1);
  Expect(Near(ShareBoundaryDistance(tight, 0.9), 5), "85/15: p90 is 5 away");
  Report report;
  report.AddPercentiles("y", tight);
  Expect(report.errors.size() == 1,
         "85/15 refuses p90 for the boundary (p50 stays)");

  LatencyClass one;
  for (int i = 0; i < 10; ++i) one.Add(i, 0);
  Expect(std::isinf(ShareBoundaryDistance(one, 0.9)),
         "one shape has no boundary");
}

void TestScaleFactor() {
  Expect(Near(ScaleFactor({}, 0, 1), 1), "no calibrations scale by 1");
  // Kernel times 20, 10, 40, 5 and 10 ms at 0, 1, 2, 3 and 9 s.
  const std::vector<Calibration> points = {
      {0, 20}, {1e6, 10}, {2e6, 40}, {3e6, 5}, {9e6, 10}};
  const double ref = kReferenceCalibrationMs;
  Expect(Near(ScaleFactor(points, 0.5e6, 2.5e6), ref / 15),
         "a span takes the median of every calibration within 1 s of it");
  Expect(Near(ScaleFactor(points, 1.4e6, 1.4e6), ref / 20),
         "two calibrations within 1 s widen to the three nearest");
  Expect(Near(ScaleFactor(points, 9e6, 9e6), ref / 10),
         "a lone calibration widens to the three nearest");
  Expect(Near(ScaleFactor(points, 20e6, 20e6), ref / 10),
         "past the last calibration, the three nearest");
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  TestPercentileRule();
  TestSelfTime();
  TestShareBoundary();
  TestScaleFactor();
  return failures;
}

}  // namespace perfbench
