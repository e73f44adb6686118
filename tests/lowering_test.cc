// Pins the shape of the physical lowering through the counts of the
// execution pipeline's failpoint sites. Every site is armed with
// ArmAfterHits(UINT64_MAX): it never fails, but counts every hit, so a
// drain reports how many operators opened (exec.open), how many batches
// blocking consumers materialized (exec.materialize), how many interval
// indexes were (re)built (index.build), how many batches the key
// repartitioning routed (repartition.route) and, serially, how many
// Next() calls the tree served (exec.next). A change to the lowering
// that adds, drops or re-shapes an operator, copies a borrowed input,
// builds a shared index once per pipeline instead of once per plan, or
// re-scans a join input once more per partition moves one of these
// counts.
//
// Canned plans run at workers 1, 2 and 4 (ForcedParallel: no serial
// fallback) in both execution modes. gather.handoff and the parallel
// exec.next counts depend on the order in which pipelines claim
// morsels, so they stay unpinned.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "query/physical.h"
#include "testing/plan_fuzz.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::ForcedParallel;

constexpr TimePoint kRt = 500;
constexpr size_t kMorselSize = 256;
constexpr std::array<size_t, 3> kWorkers = {1, 2, 4};

// Short fixed intervals over [0, 1000) with every tenth tuple ongoing
// ([s, now)), so temporal joins stay selective.
OngoingRelation MakeRelation(uint64_t seed, const std::string& prefix,
                             size_t n, int64_t keys) {
  Rng rng(seed);
  OngoingRelation r(Schema({{prefix + "ID", ValueType::kInt64},
                            {prefix + "K", ValueType::kInt64},
                            {prefix + "VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < n; ++i) {
    const TimePoint s = rng.Uniform(0, 990);
    const OngoingInterval vt =
        i % 10 == 0 ? OngoingInterval::SinceUntilNow(s)
                    : OngoingInterval::Fixed(s, s + rng.Uniform(1, 20));
    EXPECT_TRUE(r.Insert({Value::Int64(static_cast<int64_t>(i)),
                          Value::Int64(rng.Uniform(0, keys - 1)),
                          Value::Ongoing(vt)})
                    .ok());
  }
  return r;
}

// A and B span two default-capacity batches; C is a small nested-loop
// inner.
struct Relations {
  OngoingRelation a = MakeRelation(1, "A_", 1300, 200);
  OngoingRelation b = MakeRelation(2, "B_", 1100, 200);
  OngoingRelation c = MakeRelation(3, "C_", 40, 10);
};

uint64_t Hits(const char* site) { return Failpoint::Find(site)->hits(); }

// The pinned counts of one drain, rendered so a mismatch shows every
// count at once. `index_builds` is passed in so a warm second drain can
// be compared against the first.
std::string Profile(size_t rows, uint64_t index_builds, bool serial) {
  std::string out = "rows=" + std::to_string(rows) +
                    " open=" + std::to_string(Hits("exec.open")) +
                    " materialize=" + std::to_string(Hits("exec.materialize")) +
                    " index_build=" + std::to_string(index_builds) +
                    " route=" + std::to_string(Hits("repartition.route"));
  if (serial) out += " next=" + std::to_string(Hits("exec.next"));
  return out;
}

const char* const kCountedSites[] = {"exec.open", "exec.next",
                                     "exec.materialize", "index.build",
                                     "repartition.route"};

class LoweringPinTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoint::DisarmAll(); }
  void TearDown() override { Failpoint::DisarmAll(); }

  // Drains `op` once with every counted site armed; returns the result.
  static OngoingRelation CountedDrain(PhysicalOperator& op) {
    for (const char* site : kCountedSites) {
      Failpoint::GetOrCreate(site).ArmAfterHits(UINT64_MAX);
    }
    Result<OngoingRelation> result = DrainToRelation(op);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *std::move(result) : OngoingRelation(op.schema());
  }
};

struct PinnedPlan {
  const char* name;
  PlanPtr plan;
  const char* serial_root;  // Name() of the serial tree's root
  // Profiles at workers 1, 2 and 4: ongoing mode, then at kRt.
  std::array<const char*, 3> ongoing;
  std::array<const char*, 3> at_rt;
};

TEST_F(LoweringPinTest, OperatorCountsPerDrain) {
  Relations rel;
  const PlanPtr scan_a = Scan(&rel.a, "A");
  const PlanPtr scan_b = Scan(&rel.b, "B");
  const PlanPtr scan_c = Scan(&rel.c, "C");
  const std::vector<PinnedPlan> plans = {
      {"bare scan", scan_a, "Scan",
       {"rows=1300 open=0 materialize=0 index_build=0 route=0 next=0",
        "rows=1300 open=3 materialize=0 index_build=0 route=0",
        "rows=1300 open=5 materialize=0 index_build=0 route=0"},
       {"rows=1300 open=1 materialize=0 index_build=0 route=0 next=3",
        "rows=1300 open=3 materialize=0 index_build=0 route=0",
        "rows=1300 open=5 materialize=0 index_build=0 route=0"}},
      {"index-eligible filter",
       Filter(scan_a, OverlapsExpr(Col("A_VT"),
                                   Lit(OngoingInterval::Fixed(300, 340)))),
       "Scan",
       {"rows=98 open=1 materialize=0 index_build=0 route=0 next=3",
        "rows=98 open=3 materialize=0 index_build=0 route=0",
        "rows=98 open=5 materialize=0 index_build=0 route=0"},
       {"rows=98 open=1 materialize=0 index_build=0 route=0 next=3",
        "rows=98 open=3 materialize=0 index_build=0 route=0",
        "rows=98 open=5 materialize=0 index_build=0 route=0"}},
      {"ineligible filter", Filter(scan_a, Lt(Col("A_ID"), Lit(int64_t{1000}))),
       "Scan",
       {"rows=1000 open=1 materialize=0 index_build=0 route=0 next=3",
        "rows=1000 open=3 materialize=0 index_build=0 route=0",
        "rows=1000 open=5 materialize=0 index_build=0 route=0"},
       {"rows=1000 open=1 materialize=0 index_build=0 route=0 next=3",
        "rows=1000 open=3 materialize=0 index_build=0 route=0",
        "rows=1000 open=5 materialize=0 index_build=0 route=0"}},
      {"project over hash join",
       ProjectPlan(Join(scan_a, scan_b,
                        And(Eq(Col("A_K"), Col("B_K")),
                            OverlapsExpr(Col("A_VT"), Col("B_VT"))),
                        "L", "R", JoinAlgorithm::kHash),
                   {"A_ID", "B_ID"}),
       "Operator",
       {"rows=812 open=2 materialize=0 index_build=0 route=0 next=4",
        "rows=812 open=9 materialize=4 index_build=0 route=8",
        "rows=812 open=17 materialize=8 index_build=0 route=16"},
       {"rows=282 open=4 materialize=3 index_build=0 route=0 next=10",
        "rows=282 open=13 materialize=4 index_build=0 route=8",
        "rows=282 open=25 materialize=8 index_build=0 route=16"}},
      {"keyless nested loop",
       Join(scan_a, scan_c, OverlapsExpr(Col("A_VT"), Col("C_VT")), "L", "R",
            JoinAlgorithm::kNestedLoop),
       "Operator",
       {"rows=6244 open=1 materialize=0 index_build=0 route=0 next=8",
        "rows=6244 open=5 materialize=0 index_build=0 route=0",
        "rows=6244 open=9 materialize=0 index_build=0 route=0"},
       {"rows=1615 open=3 materialize=2 index_build=0 route=0 next=8",
        "rows=1615 open=7 materialize=4 index_build=0 route=0",
        "rows=1615 open=13 materialize=8 index_build=0 route=0"}},
      {"nested loop, computed inner",
       Join(scan_a, Filter(scan_c, Lt(Col("C_ID"), Lit(int64_t{30}))),
            OverlapsExpr(Col("A_VT"), Col("C_VT")), "L", "R",
            JoinAlgorithm::kNestedLoop),
       "Operator",
       {"rows=4736 open=2 materialize=2 index_build=0 route=0 next=8",
        "rows=4736 open=7 materialize=4 index_build=0 route=0",
        "rows=4736 open=13 materialize=8 index_build=0 route=0"},
       {"rows=1221 open=3 materialize=2 index_build=0 route=0 next=8",
        "rows=1221 open=7 materialize=4 index_build=0 route=0",
        "rows=1221 open=13 materialize=8 index_build=0 route=0"}},
      {"index nested loop",
       Join(scan_a, scan_c, OverlapsExpr(Col("A_VT"), Col("C_VT")), "L", "R",
            JoinAlgorithm::kIndexNL),
       "IndexJoin",
       {"rows=6244 open=1 materialize=0 index_build=1 route=0 next=8",
        "rows=6244 open=5 materialize=0 index_build=1 route=0",
        "rows=6244 open=9 materialize=0 index_build=1 route=0"},
       {"rows=1615 open=2 materialize=0 index_build=1 route=0 next=6",
        "rows=1615 open=5 materialize=0 index_build=1 route=0",
        "rows=1615 open=9 materialize=0 index_build=1 route=0"}},
      {"hash join, computed inputs",
       Join(Filter(scan_a, Lt(Col("A_ID"), Lit(int64_t{1000}))),
            Filter(scan_b, OverlapsExpr(Col("B_VT"),
                                        Lit(OngoingInterval::Fixed(0, 800)))),
            Eq(Col("A_K"), Col("B_K")), "L", "R", JoinAlgorithm::kHash),
       "Operator",
       {"rows=4509 open=3 materialize=2 index_build=0 route=0 next=12",
        "rows=4509 open=11 materialize=4 index_build=0 route=8",
        "rows=4509 open=21 materialize=8 index_build=0 route=16"},
       {"rows=4324 open=3 materialize=2 index_build=0 route=0 next=12",
        "rows=4324 open=11 materialize=4 index_build=0 route=8",
        "rows=4324 open=21 materialize=8 index_build=0 route=16"}},
  };

  for (const PinnedPlan& pinned : plans) {
    for (ExecMode mode : {ExecMode::kOngoing, ExecMode::kAtReferenceTime}) {
      const bool ongoing = mode == ExecMode::kOngoing;
      const TimePoint rt = ongoing ? 0 : kRt;
      for (size_t w = 0; w < kWorkers.size(); ++w) {
        const size_t workers = kWorkers[w];
        SCOPED_TRACE(::testing::Message()
                     << pinned.name << (ongoing ? ", ongoing" : ", at rt")
                     << ", workers " << workers);
        Result<PhysicalOpPtr> op = Compile(
            pinned.plan, mode, rt, ForcedParallel(workers, kMorselSize));
        ASSERT_TRUE(op.ok()) << op.status().ToString();
        const bool serial = workers == 1;
        if (serial) {
          EXPECT_STREQ((*op)->Name(), pinned.serial_root);
        }
        // Only a serial ongoing-mode scan hands its relation out whole.
        EXPECT_EQ((*op)->BorrowedRelation() != nullptr,
                  serial && ongoing && pinned.plan == scan_a);

        const OngoingRelation first = CountedDrain(**op);
        const uint64_t builds = Hits("index.build");
        const std::string profile = Profile(first.size(), builds, serial);
        EXPECT_EQ(profile, ongoing ? pinned.ongoing[w] : pinned.at_rt[w]);

        // A second drain of the same tree repeats every count except
        // index.build: the warm index passes its fingerprint check.
        const OngoingRelation second = CountedDrain(**op);
        EXPECT_EQ(Hits("index.build"), 0u);
        EXPECT_EQ(Fingerprint(second), Fingerprint(first));
        EXPECT_EQ(Profile(second.size(), builds, serial), profile);
      }
    }
  }
}

}  // namespace
}  // namespace ongoingdb
