// Unit tests for the interval histograms (storage/stats.h): equi-depth
// cumulative fractions, probe-selectivity estimates vs the exact
// candidate counts the IntervalIndex returns (uniform, skewed, and
// degenerate point-interval distributions), and the cost-based kAuto
// regression — on a constructed dataset the optimizer must pick
// index-NL for selective temporal probes and flip to hash exactly once
// as the probes widen past the modeled crossover.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/interval_index.h"
#include "query/optimizer.h"
#include "query/plan.h"
#include "storage/stats.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

OngoingRelation MakeIntervalRelation(const std::string& prefix,
                                     const std::vector<OngoingInterval>& ivs) {
  OngoingRelation r(Schema({{prefix + "K", ValueType::kInt64},
                            {prefix + "VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < ivs.size(); ++i) {
    EXPECT_TRUE(r.Insert({Value::Int64(static_cast<int64_t>(i % 10)),
                          Value::Ongoing(ivs[i])})
                    .ok());
  }
  return r;
}

// The ground truth a selectivity estimate approximates: the fraction of
// tuples the IntervalIndex actually returns as candidates.
double ExactCandidateFraction(const OngoingRelation& r,
                              const std::string& column, IntervalProbeOp op,
                              const IntervalBounds& probe) {
  auto index = IntervalIndex::Build(r, column);
  EXPECT_TRUE(index.ok());
  std::vector<size_t> candidates;
  index->CandidatesInto(op, probe, &candidates);
  return static_cast<double>(candidates.size()) /
         static_cast<double>(r.size());
}

TEST(EquiDepthHistogramTest, CumulativeFractionsOnUniformSamples) {
  std::vector<TimePoint> samples;
  for (TimePoint v = 0; v < 1000; ++v) samples.push_back(v);
  EquiDepthHistogram h = BuildEquiDepthHistogram(samples, 32);
  EXPECT_NEAR(h.FractionAtMost(-5), 0.0, 1e-9);
  EXPECT_NEAR(h.FractionAtMost(999), 1.0, 1e-9);
  EXPECT_NEAR(h.FractionAtMost(2000), 1.0, 1e-9);
  for (TimePoint v : {TimePoint{100}, TimePoint{250}, TimePoint{500},
                      TimePoint{900}}) {
    EXPECT_NEAR(h.FractionAtMost(v), static_cast<double>(v + 1) / 1000.0,
                0.05)
        << "v=" << v;
    EXPECT_LE(h.FractionBelow(v), h.FractionAtMost(v));
  }
}

TEST(EquiDepthHistogramTest, DegenerateSingleValueSamples) {
  EquiDepthHistogram h =
      BuildEquiDepthHistogram(std::vector<TimePoint>(100, 42), 16);
  EXPECT_NEAR(h.FractionAtMost(41), 0.0, 1e-9);
  EXPECT_NEAR(h.FractionAtMost(42), 1.0, 1e-9);
  EXPECT_NEAR(h.FractionBelow(42), 0.0, 1e-9);
  EXPECT_TRUE(BuildEquiDepthHistogram({}, 16).empty());
}

TEST(IntervalColumnStatsTest, UniformDistributionEstimatesMatchExactCounts) {
  Rng rng(1);
  std::vector<OngoingInterval> ivs;
  for (int i = 0; i < 2000; ++i) {
    TimePoint s = rng.Uniform(0, 1000);
    ivs.push_back(OngoingInterval::Fixed(s, s + 10));
  }
  OngoingRelation r = MakeIntervalRelation("U_", ivs);
  auto stats = ComputeIntervalColumnStats(r, 1, 32, r.size());
  ASSERT_TRUE(stats.ok());
  for (auto op : {IntervalProbeOp::kOverlaps, IntervalProbeOp::kBefore,
                  IntervalProbeOp::kAfter}) {
    for (TimePoint s : {TimePoint{100}, TimePoint{400}, TimePoint{800}}) {
      const IntervalBounds probe =
          IntervalBounds::Of(FixedInterval{s, s + 100});
      const double exact = ExactCandidateFraction(r, "U_VT", op, probe);
      const double estimate = stats->EstimateProbeSelectivity(op, probe);
      EXPECT_NEAR(estimate, exact, 0.06)
          << "op=" << IntervalProbeOpName(op) << " s=" << s;
    }
  }
  // The duration histogram sees the constant width.
  EXPECT_NEAR(stats->duration.FractionAtMost(9), 0.0, 1e-9);
  EXPECT_NEAR(stats->duration.FractionAtMost(10), 1.0, 1e-9);
}

TEST(IntervalColumnStatsTest, SkewedDistributionEstimatesMatchExactCounts) {
  // Mass clustered late (the Fig. 7 shape): equi-depth buckets must
  // keep resolution where the mass is.
  Rng rng(2);
  std::vector<OngoingInterval> ivs;
  for (int i = 0; i < 2000; ++i) {
    TimePoint s = rng.SkewedTowardsHigh(0, 1000, 6.0);
    ivs.push_back(OngoingInterval::Fixed(s, s + rng.Uniform(1, 20)));
  }
  OngoingRelation r = MakeIntervalRelation("S_", ivs);
  auto stats = ComputeIntervalColumnStats(r, 1, 32, r.size());
  ASSERT_TRUE(stats.ok());
  for (TimePoint s : {TimePoint{500}, TimePoint{900}, TimePoint{980}}) {
    IntervalBounds probe = IntervalBounds::Of(FixedInterval{s, s + 20});
    const double exact =
        ExactCandidateFraction(r, "S_VT", IntervalProbeOp::kOverlaps, probe);
    const double estimate =
        stats->EstimateProbeSelectivity(IntervalProbeOp::kOverlaps, probe);
    EXPECT_NEAR(estimate, exact, 0.06) << "s=" << s;
  }
}

TEST(IntervalColumnStatsTest, DegeneratePointIntervalsEstimateZeroOverlaps) {
  // Point intervals [s, s) are empty at every reference time: unit-width
  // overlaps probes return nothing, and the estimate must agree instead
  // of assuming unit-width intervals.
  Rng rng(3);
  std::vector<OngoingInterval> ivs;
  for (int i = 0; i < 500; ++i) {
    TimePoint s = rng.Uniform(0, 200);
    ivs.push_back(OngoingInterval::Fixed(s, s));
  }
  OngoingRelation r = MakeIntervalRelation("P_", ivs);
  auto stats = ComputeIntervalColumnStats(r, 1, 32, r.size());
  ASSERT_TRUE(stats.ok());
  for (TimePoint t : {TimePoint{50}, TimePoint{100}, TimePoint{150}}) {
    const IntervalBounds probe = IntervalBounds::Of(FixedInterval{t, t + 1});
    const double exact =
        ExactCandidateFraction(r, "P_VT", IntervalProbeOp::kOverlaps, probe);
    EXPECT_NEAR(exact, 0.0, 1e-9);
    EXPECT_NEAR(
        stats->EstimateProbeSelectivity(IntervalProbeOp::kOverlaps, probe),
        0.0, 0.05)
        << "t=" << t;
  }
  // Ongoing (non-degenerate) estimation still behaves on sampled stats:
  // a fraction-limited sample stays within tolerance of the exact count.
  auto sampled = ComputeIntervalColumnStats(r, 1, 32, 128);
  ASSERT_TRUE(sampled.ok());
  const IntervalBounds wide = IntervalBounds::Of(FixedInterval{0, 300});
  EXPECT_NEAR(
      sampled->EstimateProbeSelectivity(IntervalProbeOp::kBefore, wide),
      ExactCandidateFraction(r, "P_VT", IntervalProbeOp::kBefore, wide),
      0.10);
}

// The cost-based kAuto regression: keys with 1/10 selectivity plus a
// temporal overlaps conjunct whose selectivity is set by the outer
// interval width. Narrow probes must resolve to index-NL, wide ones to
// hash, and the flip must happen exactly once as the width sweeps up —
// the measured crossover of the two cost curves.
TEST(CostBasedJoinGateTest, AutoFlipsFromIndexNLToHashAtTheCrossover) {
  Rng rng(4);
  std::vector<OngoingInterval> inner_ivs;
  for (int i = 0; i < 1000; ++i) {
    TimePoint s = rng.Uniform(0, 1000);
    inner_ivs.push_back(OngoingInterval::Fixed(s, s + 1));
  }
  OngoingRelation inner = MakeIntervalRelation("B_", inner_ivs);

  auto resolve_for_width = [&](TimePoint width) {
    Rng orng(5);
    std::vector<OngoingInterval> outer_ivs;
    for (int i = 0; i < 500; ++i) {
      TimePoint s = orng.Uniform(0, 1000 - width);
      outer_ivs.push_back(OngoingInterval::Fixed(s, s + width));
    }
    // The fixture owns the outer per call; resolution happens on the
    // node, not on executed data, so lifetime ends with the call.
    OngoingRelation outer = MakeIntervalRelation("A_", outer_ivs);
    PlanPtr plan = Join(Scan(&outer, "A"), Scan(&inner, "B"),
                        And(Eq(Col("A_K"), Col("B_K")),
                            OverlapsExpr(Col("A_VT"), Col("B_VT"))),
                        "L", "R");
    auto chosen = ChooseJoinAlgorithms(plan);
    EXPECT_TRUE(chosen.ok());
    return static_cast<const JoinNode*>(chosen->get())->algorithm();
  };

  EXPECT_EQ(resolve_for_width(2), JoinAlgorithm::kIndexNL)
      << "selective temporal probe must pick the index";
  EXPECT_EQ(resolve_for_width(600), JoinAlgorithm::kHash)
      << "wide temporal probe must fall back to the key join";
  // The flip is monotone: exactly one index-NL -> hash transition
  // across the width sweep.
  int flips = 0;
  JoinAlgorithm previous = JoinAlgorithm::kIndexNL;
  for (TimePoint width : {TimePoint{2}, TimePoint{10}, TimePoint{40},
                          TimePoint{80}, TimePoint{120}, TimePoint{200},
                          TimePoint{350}, TimePoint{600}}) {
    JoinAlgorithm algorithm = resolve_for_width(width);
    ASSERT_TRUE(algorithm == JoinAlgorithm::kIndexNL ||
                algorithm == JoinAlgorithm::kHash);
    if (algorithm != previous) {
      ++flips;
      EXPECT_EQ(previous, JoinAlgorithm::kIndexNL);
      EXPECT_EQ(algorithm, JoinAlgorithm::kHash);
    }
    previous = algorithm;
  }
  EXPECT_EQ(flips, 1) << "the cost curves cross exactly once";

  // Below the inner-size floor the gate never picks the index, no
  // matter how selective the probe (the build cannot amortize).
  std::vector<OngoingInterval> tiny_ivs(inner_ivs.begin(),
                                        inner_ivs.begin() + 32);
  OngoingRelation tiny_inner = MakeIntervalRelation("B_", tiny_ivs);
  std::vector<OngoingInterval> outer_ivs;
  for (int i = 0; i < 100; ++i) {
    TimePoint s = rng.Uniform(0, 1000);
    outer_ivs.push_back(OngoingInterval::Fixed(s, s + 2));
  }
  OngoingRelation outer = MakeIntervalRelation("A_", outer_ivs);
  PlanPtr plan = Join(Scan(&outer, "A"), Scan(&tiny_inner, "B"),
                      And(Eq(Col("A_K"), Col("B_K")),
                          OverlapsExpr(Col("A_VT"), Col("B_VT"))),
                      "L", "R");
  auto chosen = ChooseJoinAlgorithms(plan);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(static_cast<const JoinNode*>(chosen->get())->algorithm(),
            JoinAlgorithm::kHash);
}

}  // namespace
}  // namespace ongoingdb
