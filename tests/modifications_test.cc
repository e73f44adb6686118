// Tests of the Torp-style temporal modification semantics: inserts,
// logical deletes, and updates that stay correct as time passes by
// because Omega is closed under min/max.
#include "relation/modifications.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/operations.h"

namespace ongoingdb {
namespace {

Schema ContractSchema() {
  return Schema({{"ID", ValueType::kInt64},
                 {"Role", ValueType::kString},
                 {"VT", ValueType::kOngoingInterval}});
}

constexpr size_t kVt = 2;

TEST(ModificationsTest, InsertOpensValidTimeAtCommitTime) {
  OngoingRelation r(ContractSchema());
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(1), Value::String("dev"),
                              Value::Null()},
                             kVt, MD(3, 1))
                  .ok());
  ASSERT_EQ(r.size(), 1u);
  const OngoingInterval& vt = r.tuple(0).value(kVt).AsOngoingInterval();
  EXPECT_EQ(vt.ToString(), "[03/01, now)");
  // Valid from 03/02 on (the interval is empty at rt <= 03/01).
  EXPECT_TRUE(vt.Instantiate(MD(3, 1)).empty());
  EXPECT_FALSE(vt.Instantiate(MD(6, 1)).empty());
}

TEST(ModificationsTest, DeleteClosesOngoingValidTimeWithMin) {
  OngoingRelation r(ContractSchema());
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(1), Value::String("dev"),
                              Value::Null()},
                             kVt, MD(3, 1))
                  .ok());
  auto deleted = TemporalDelete(&r, kVt, MD(6, 15), [](const Tuple& t) {
    return t.value(0).AsInt64() == 1;
  });
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  ASSERT_EQ(r.size(), 1u);
  // end = min(now, 06/15) = +06/15: "until possibly earlier, but not
  // later than 06/15" — the Torp semantics, exactly representable in
  // Omega.
  const OngoingInterval& vt = r.tuple(0).value(kVt).AsOngoingInterval();
  EXPECT_EQ(vt.ToString(), "[03/01, +06/15)");
  // Snapshot check: before the delete commit the tuple was valid up to
  // rt; afterwards it ends at 06/15.
  EXPECT_EQ(vt.Instantiate(MD(5, 1)), (FixedInterval{MD(3, 1), MD(5, 1)}));
  EXPECT_EQ(vt.Instantiate(MD(9, 1)), (FixedInterval{MD(3, 1), MD(6, 15)}));
}

TEST(ModificationsTest, DeleteOfFixedIntervalCapsEnd) {
  OngoingRelation r(ContractSchema());
  ASSERT_TRUE(r.Insert({Value::Int64(2), Value::String("qa"),
                        Value::Ongoing(OngoingInterval::Fixed(MD(1, 1),
                                                              MD(9, 1)))})
                  .ok());
  auto deleted = TemporalDelete(&r, kVt, MD(6, 1),
                                [](const Tuple&) { return true; });
  ASSERT_TRUE(deleted.ok());
  const OngoingInterval& vt = r.tuple(0).value(kVt).AsOngoingInterval();
  EXPECT_EQ(vt.ToString(), "[01/01, 06/01)");
}

TEST(ModificationsTest, DeleteRemovesNeverValidTuples) {
  OngoingRelation r(ContractSchema());
  // Inserted at 06/01, deleted already at 03/01: [06/01, min(now, 03/01))
  // = [06/01, 03/01), empty at every reference time.
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(3), Value::String("ops"),
                              Value::Null()},
                             kVt, MD(6, 1))
                  .ok());
  auto deleted = TemporalDelete(&r, kVt, MD(3, 1),
                                [](const Tuple&) { return true; });
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  EXPECT_EQ(r.size(), 0u);
}

TEST(ModificationsTest, DeleteOnlyAffectsMatchingTuples) {
  OngoingRelation r(ContractSchema());
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(1), Value::String("dev"),
                              Value::Null()},
                             kVt, MD(1, 1))
                  .ok());
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(2), Value::String("qa"),
                              Value::Null()},
                             kVt, MD(2, 1))
                  .ok());
  auto deleted = TemporalDelete(&r, kVt, MD(6, 1), [](const Tuple& t) {
    return t.value(1).AsString() == "qa";
  });
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuple(0).value(kVt).AsOngoingInterval().ToString(),
            "[01/01, now)");
  EXPECT_EQ(r.tuple(1).value(kVt).AsOngoingInterval().ToString(),
            "[02/01, +06/01)");
}

TEST(ModificationsTest, UpdateClosesOldVersionAndOpensNew) {
  OngoingRelation r(ContractSchema());
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(1), Value::String("dev"),
                              Value::Null()},
                             kVt, MD(1, 1))
                  .ok());
  auto updated = TemporalUpdate(
      &r, kVt, MD(6, 1), [](const Tuple&) { return true; },
      [](const Tuple& t) {
        std::vector<Value> values = t.values();
        values[1] = Value::String("lead");
        return values;
      });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 1u);
  ASSERT_EQ(r.size(), 2u);
  // Old version closed at 06/01; new version valid from 06/01 on.
  EXPECT_EQ(r.tuple(0).value(1).AsString(), "dev");
  EXPECT_EQ(r.tuple(0).value(kVt).AsOngoingInterval().ToString(),
            "[01/01, +06/01)");
  EXPECT_EQ(r.tuple(1).value(1).AsString(), "lead");
  EXPECT_EQ(r.tuple(1).value(kVt).AsOngoingInterval().ToString(),
            "[06/01, now)");
}

TEST(ModificationsTest, UpdateSnapshotSemantics) {
  // At each reference time, the versions partition the role history:
  // before the update commit only "dev" exists; afterwards "dev" ends at
  // the commit time and "lead" continues.
  OngoingRelation r(ContractSchema());
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(1), Value::String("dev"),
                              Value::Null()},
                             kVt, MD(1, 1))
                  .ok());
  ASSERT_TRUE(TemporalUpdate(
                  &r, kVt, MD(6, 1), [](const Tuple&) { return true; },
                  [](const Tuple& t) {
                    std::vector<Value> values = t.values();
                    values[1] = Value::String("lead");
                    return values;
                  })
                  .ok());
  // rt = 04/01 (before commit): dev valid [01/01, 04/01), lead empty.
  {
    FixedInterval dev =
        r.tuple(0).value(kVt).AsOngoingInterval().Instantiate(MD(4, 1));
    FixedInterval lead =
        r.tuple(1).value(kVt).AsOngoingInterval().Instantiate(MD(4, 1));
    EXPECT_EQ(dev, (FixedInterval{MD(1, 1), MD(4, 1)}));
    EXPECT_TRUE(lead.empty());
  }
  // rt = 09/01 (after commit): dev ended at 06/01, lead open until rt.
  {
    FixedInterval dev =
        r.tuple(0).value(kVt).AsOngoingInterval().Instantiate(MD(9, 1));
    FixedInterval lead =
        r.tuple(1).value(kVt).AsOngoingInterval().Instantiate(MD(9, 1));
    EXPECT_EQ(dev, (FixedInterval{MD(1, 1), MD(6, 1)}));
    EXPECT_EQ(lead, (FixedInterval{MD(6, 1), MD(9, 1)}));
  }
}

TEST(ModificationsTest, UpdateRejectsBadUpdaterRowsWithNothingChanged) {
  // An updater row the schema rejects fails the update before the new
  // valid time is written into it: a short row would be written past its
  // end, a wrong-typed one appended unvalidated. The first match passes
  // and the second fails, and neither the relation nor its log changes.
  OngoingRelation r(ContractSchema());
  r.EnableModificationLog();
  for (int64_t id : {1, 2}) {
    ASSERT_TRUE(TemporalInsert(&r,
                               {Value::Int64(id), Value::String("dev"),
                                Value::Null()},
                               kVt, MD(1, 1))
                    .ok());
  }
  ModificationLog* log = r.modification_log();
  const uint64_t logged = log->next_seq();
  auto rows = [&r] {
    std::vector<std::string> out;
    for (const Tuple& t : r.tuples()) out.push_back(t.ToString());
    return out;
  };
  const std::vector<std::string> before = rows();

  const std::pair<std::vector<Value>, StatusCode> bad_rows[] = {
      {{Value::Int64(2)}, StatusCode::kSchemaMismatch},
      {{Value::String("two"), Value::String("lead"), Value::Null()},
       StatusCode::kTypeError}};
  for (const auto& [bad, code] : bad_rows) {
    auto updated = TemporalUpdate(
        &r, kVt, MD(6, 1), [](const Tuple&) { return true; },
        [&bad](const Tuple& t) {
          if (t.value(0).AsInt64() == 2) return bad;
          std::vector<Value> values = t.values();
          values[1] = Value::String("lead");
          return values;
        });
    ASSERT_FALSE(updated.ok());
    EXPECT_EQ(updated.status().code(), code);
    EXPECT_EQ(rows(), before);
    EXPECT_EQ(r.modification_log(), log);
    EXPECT_EQ(log->next_seq(), logged);
  }
}

TEST(ModificationsTest, ValidationErrors) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64}}));
  EXPECT_FALSE(TemporalInsert(&r, {Value::Int64(1)}, 0, 0).ok());
  EXPECT_FALSE(
      TemporalDelete(&r, 5, 0, [](const Tuple&) { return true; }).ok());
  OngoingRelation r2(ContractSchema());
  EXPECT_FALSE(TemporalInsert(&r2, {Value::Int64(1)}, kVt, 0).ok());
}

}  // namespace
}  // namespace ongoingdb
