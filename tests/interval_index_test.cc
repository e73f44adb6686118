// Tests of the interval index (future-work extension): candidate sets
// must be supersets of the exact predicate answers. The randomized
// property suites honor ONGOINGDB_TEST_SEED and print their seed on
// failure (tests/testing/plan_fuzz.h).
#include "query/interval_index.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/operations.h"
#include "relation/algebra.h"
#include "testing/plan_fuzz.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

OngoingRelation MakeRelation(uint64_t seed, size_t n) {
  Rng rng(seed);
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < n; ++i) {
    OngoingInterval vt;
    switch (rng.Uniform(0, 2)) {
      case 0:
        vt = OngoingInterval::SinceUntilNow(rng.Uniform(0, 200));
        break;
      case 1:
        vt = OngoingInterval::FromNowUntil(rng.Uniform(0, 200));
        break;
      default: {
        TimePoint s = rng.Uniform(0, 200);
        vt = OngoingInterval::Fixed(s, s + rng.Uniform(1, 40));
      }
    }
    EXPECT_TRUE(r.Insert({Value::Int64(static_cast<int64_t>(i)),
                          Value::Ongoing(vt)})
                    .ok());
  }
  return r;
}

// The candidates CandidatesInto returns for `op` against a fixed probe.
std::vector<size_t> Candidates(const IntervalIndex& index, IntervalProbeOp op,
                               const FixedInterval& probe) {
  std::vector<size_t> out;
  index.CandidatesInto(op, IntervalBounds::Of(probe), &out);
  return out;
}

TEST(IntervalIndexTest, RequiresIntervalAttribute) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64}}));
  EXPECT_FALSE(IntervalIndex::Build(r, "ID").ok());
  EXPECT_FALSE(IntervalIndex::Build(r, "Missing").ok());
}

// Regression: on a bitemporal relation whose transaction-time column
// precedes the valid-time column, probes of an index built on VT must
// answer for VT — the old code re-resolved "the first interval
// attribute" and evaluated TT instead.
TEST(IntervalIndexTest, SelectsOnTheIndexedColumnNotTheFirstIntervalColumn) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"TT", ValueType::kOngoingInterval},
                            {"VT", ValueType::kOngoingInterval}}));
  // TT far in the past, VT overlapping the probe: the tuple matches on
  // VT only.
  ASSERT_TRUE(r.Insert({Value::Int64(1),
                        Value::Ongoing(OngoingInterval::Fixed(0, 10)),
                        Value::Ongoing(OngoingInterval::Fixed(100, 200))})
                  .ok());
  // VT far in the future: no match on VT (TT would match the probe).
  ASSERT_TRUE(r.Insert({Value::Int64(2),
                        Value::Ongoing(OngoingInterval::Fixed(100, 200)),
                        Value::Ongoing(OngoingInterval::Fixed(500, 600))})
                  .ok());
  auto index = IntervalIndex::Build(r, "VT");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->column_index(), 2u);

  // Fixed intervals make the candidates (CandidatesInto's answer for a
  // fixed probe) exact: tuple 1 (position 0) only.
  EXPECT_EQ(Candidates(*index, IntervalProbeOp::kOverlaps, {100, 150}),
            std::vector<size_t>{0});

  // Before [300, 400): VT of tuple 1 ends at 200 (match); tuple 2's VT
  // starts at 500 (no match) even though its TT is long finished.
  EXPECT_EQ(Candidates(*index, IntervalProbeOp::kBefore, {300, 400}),
            std::vector<size_t>{0});
}

// Regression: the before-sweep used to stop at min_start >= probe.start,
// dropping degenerate candidates with min_start == min_end ==
// probe.start even though they satisfy the candidate condition
// min_end <= probe.start.
TEST(IntervalIndexTest, BeforeProbeKeepsDegenerateStopBoundEntries) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  // min_start == min_end == 5: start = 5+, end = 5+9.
  OngoingInterval degenerate(OngoingTimePoint::Growing(5),
                             OngoingTimePoint(5, 9));
  ASSERT_TRUE(r.Insert({Value::Int64(0),
                        Value::Ongoing(OngoingInterval::Fixed(0, 3))})
                  .ok());
  ASSERT_TRUE(r.Insert({Value::Int64(1), Value::Ongoing(degenerate)}).ok());
  ASSERT_TRUE(r.Insert({Value::Int64(2),
                        Value::Ongoing(OngoingInterval::Fixed(7, 12))})
                  .ok());
  auto index = IntervalIndex::Build(r, "VT");
  ASSERT_TRUE(index.ok());

  const FixedInterval probe{5, 8};
  std::vector<size_t> c = Candidates(*index, IntervalProbeOp::kBefore, probe);
  std::set<size_t> candidates(c.begin(), c.end());
  EXPECT_TRUE(candidates.count(0) > 0);
  EXPECT_TRUE(candidates.count(1) > 0)
      << "degenerate min_start == min_end == probe.start entry dropped";
  EXPECT_EQ(candidates.count(2), 0u);

  // The exact predicate over the candidates equals the full scan's
  // selection.
  OngoingRelation candidate_rows(r.schema());
  for (size_t pos : c) candidate_rows.AppendUnchecked(r.tuple(pos));
  OngoingInterval probe_iv = OngoingInterval::Fixed(probe.start, probe.end);
  auto before = [&probe_iv](const Tuple& t) {
    return Before(t.value(1).AsOngoingInterval(), probe_iv);
  };
  OngoingRelation indexed = Select(candidate_rows, before);
  OngoingRelation scanned = Select(r, before);
  EXPECT_EQ(indexed.size(), scanned.size());
  for (TimePoint rt = -5; rt <= 20; ++rt) {
    EXPECT_TRUE(
        InstantiatedRelationsEqual(InstantiateRelation(indexed, rt),
                                   InstantiateRelation(scanned, rt)))
        << "rt=" << rt;
  }
}

class IntervalIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalIndexPropertyTest, OverlapsProbeIsSupersetOfExact) {
  ONGOINGDB_FUZZ_SEED_TRACE(GetParam());
  OngoingRelation r = MakeRelation(GetParam(), 120);
  auto index = IntervalIndex::Build(r, "VT");
  ASSERT_TRUE(index.ok());
  Rng rng(GetParam() + 1000);
  for (int probe_i = 0; probe_i < 10; ++probe_i) {
    TimePoint s = rng.Uniform(0, 200);
    FixedInterval probe{s, s + rng.Uniform(1, 50)};
    OngoingInterval probe_iv = OngoingInterval::Fixed(probe.start, probe.end);
    std::vector<size_t> c =
        Candidates(*index, IntervalProbeOp::kOverlaps, probe);
    std::set<size_t> candidates(c.begin(), c.end());
    for (size_t i = 0; i < r.size(); ++i) {
      OngoingBoolean exact =
          Overlaps(r.tuple(i).value(1).AsOngoingInterval(), probe_iv);
      if (!exact.IsAlwaysFalse()) {
        EXPECT_TRUE(candidates.count(i) > 0)
            << "tuple " << i << " satisfies overlaps at some rt but was "
            << "not a candidate";
      }
    }
  }
}

TEST_P(IntervalIndexPropertyTest, BeforeProbeIsSupersetOfExact) {
  ONGOINGDB_FUZZ_SEED_TRACE(GetParam());
  OngoingRelation r = MakeRelation(GetParam() + 7, 120);
  auto index = IntervalIndex::Build(r, "VT");
  ASSERT_TRUE(index.ok());
  Rng rng(GetParam() + 2000);
  for (int probe_i = 0; probe_i < 10; ++probe_i) {
    TimePoint s = rng.Uniform(0, 220);
    FixedInterval probe{s, s + rng.Uniform(1, 50)};
    OngoingInterval probe_iv = OngoingInterval::Fixed(probe.start, probe.end);
    std::vector<size_t> c = Candidates(*index, IntervalProbeOp::kBefore, probe);
    std::set<size_t> candidates(c.begin(), c.end());
    for (size_t i = 0; i < r.size(); ++i) {
      OngoingBoolean exact =
          Before(r.tuple(i).value(1).AsOngoingInterval(), probe_iv);
      if (!exact.IsAlwaysFalse()) {
        EXPECT_TRUE(candidates.count(i) > 0) << "tuple " << i;
      }
    }
  }
}

TEST_P(IntervalIndexPropertyTest, CandidatesPruneSomething) {
  // The index must actually prune on selective probes (not return
  // everything) — otherwise it is useless.
  OngoingRelation r = MakeRelation(GetParam() + 13, 200);
  auto index = IntervalIndex::Build(r, "VT");
  ASSERT_TRUE(index.ok());
  FixedInterval narrow{0, 2};
  EXPECT_LT(Candidates(*index, IntervalProbeOp::kOverlaps, narrow).size(),
            r.size());
}

TEST_P(IntervalIndexPropertyTest,
       AllProbeOpsReturnSupersetsForOngoingProbes) {
  ONGOINGDB_FUZZ_SEED_TRACE(GetParam());
  // The CandidatesInto dispatch with *ongoing* probe bounds — the form
  // the index-nested-loop join probes with (one probe per outer tuple).
  // For every op, every tuple satisfying the exact predicate at some
  // reference time must be a candidate.
  OngoingRelation r = MakeRelation(GetParam() + 41, 120);
  auto index = IntervalIndex::Build(r, "VT");
  ASSERT_TRUE(index.ok());
  Rng rng(GetParam() + 5000);
  std::vector<size_t> candidates_buf;
  for (int probe_i = 0; probe_i < 8; ++probe_i) {
    OngoingInterval probe_iv;
    switch (rng.Uniform(0, 2)) {
      case 0:
        probe_iv = OngoingInterval::SinceUntilNow(rng.Uniform(0, 200));
        break;
      case 1:
        probe_iv = OngoingInterval::FromNowUntil(rng.Uniform(0, 200));
        break;
      default: {
        TimePoint s = rng.Uniform(0, 200);
        probe_iv = OngoingInterval::Fixed(s, s + rng.Uniform(1, 50));
      }
    }
    const IntervalBounds probe = IntervalBounds::Of(probe_iv);
    struct Case {
      IntervalProbeOp op;
      OngoingBoolean (*exact)(const OngoingInterval&, const OngoingInterval&);
    };
    const Case cases[] = {
        {IntervalProbeOp::kOverlaps,
         [](const OngoingInterval& e, const OngoingInterval& p) {
           return Overlaps(e, p);
         }},
        {IntervalProbeOp::kBefore,
         [](const OngoingInterval& e, const OngoingInterval& p) {
           return Before(e, p);
         }},
        {IntervalProbeOp::kAfter,
         [](const OngoingInterval& e, const OngoingInterval& p) {
           return Before(p, e);
         }},
        {IntervalProbeOp::kMeets,
         [](const OngoingInterval& e, const OngoingInterval& p) {
           return Meets(e, p);
         }},
        {IntervalProbeOp::kMetBy,
         [](const OngoingInterval& e, const OngoingInterval& p) {
           return Meets(p, e);
         }},
    };
    for (const Case& c : cases) {
      index->CandidatesInto(c.op, probe, &candidates_buf);
      std::set<size_t> candidates(candidates_buf.begin(),
                                  candidates_buf.end());
      for (size_t i = 0; i < r.size(); ++i) {
        OngoingBoolean exact =
            c.exact(r.tuple(i).value(1).AsOngoingInterval(), probe_iv);
        if (!exact.IsAlwaysFalse()) {
          EXPECT_TRUE(candidates.count(i) > 0)
              << "op=" << IntervalProbeOpName(c.op) << " tuple " << i
              << " vt=" << r.tuple(i).value(1).ToString()
              << " probe=" << probe_iv.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntervalIndexPropertyTest,
                         ::testing::ValuesIn(plan_fuzz::FuzzSeeds(20)));

}  // namespace
}  // namespace ongoingdb
