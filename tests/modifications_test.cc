// Tests of the Torp-style temporal modification semantics: inserts,
// logical deletes, and updates that stay correct as time passes by
// because Omega is closed under min/max.
#include "relation/modifications.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/operations.h"
#include "expr/expr.h"
#include "sql/statement.h"
#include "testing/plan_fuzz.h"

namespace ongoingdb {
namespace {

using plan_fuzz::Fingerprint;

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

TEST(ModificationsTest, NullIsRejectedWhereRowsEnter) {
  // Neither the paper's model nor SQL has NULL. Insert, InsertWithRt,
  // TemporalInsert and an updater row reject a NULL in any column with a
  // TypeError, and neither the relation nor its log changes. Only
  // TemporalInsert's valid-time placeholder may be NULL: it is replaced
  // before the row is validated.
  OngoingRelation r(ContractSchema());
  r.EnableModificationLog();
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(1), Value::String("dev"),
                              Value::Null()},
                             kVt, MD(1, 1))
                  .ok());
  ModificationLog* log = r.modification_log();
  const uint64_t logged = log->next_seq();
  auto rows = [&r] {
    std::vector<std::string> out;
    for (const Tuple& t : r.tuples()) out.push_back(t.ToString());
    return out;
  };
  const std::vector<std::string> before = rows();
  const std::vector<Value> good = r.tuple(0).values();

  for (size_t column = 0; column < good.size(); ++column) {
    SCOPED_TRACE("NULL in column " + std::to_string(column));
    std::vector<Value> bad = good;
    bad[column] = Value::Null();
    EXPECT_EQ(r.Insert(bad).code(), StatusCode::kTypeError);
    EXPECT_EQ(r.InsertWithRt(bad, IntervalSet{{MD(1, 1), MD(2, 1)}}).code(),
              StatusCode::kTypeError);
    if (column != kVt) {
      EXPECT_EQ(TemporalInsert(&r, bad, kVt, MD(2, 1)).code(),
                StatusCode::kTypeError);
    }
    auto updated = TemporalUpdate(
        &r, kVt, MD(6, 1), [](const Tuple&) { return true; },
        [&bad](const Tuple&) { return bad; });
    ASSERT_FALSE(updated.ok());
    EXPECT_EQ(updated.status().code(), StatusCode::kTypeError);
  }
  EXPECT_EQ(rows(), before);
  EXPECT_EQ(log->next_seq(), logged);
}

TEST(ModificationsTest, RowsAlreadyClosedAtTcAreLeftAlone) {
  // A delete or update at tc applies only to rows whose valid time
  // closing at tc changes. A row an earlier delete closed at 03/01, and
  // a row whose fixed valid time ends by tc, are neither counted,
  // logged, copied nor re-versioned: the relation and its log stay as
  // they were.
  OngoingRelation r(ContractSchema());
  ASSERT_TRUE(TemporalInsert(&r,
                             {Value::Int64(1), Value::String("dev"),
                              Value::Null()},
                             kVt, MD(1, 1))
                  .ok());
  ASSERT_TRUE(r.Insert({Value::Int64(2), Value::String("qa"),
                        Value::Ongoing(OngoingInterval::Fixed(MD(1, 1),
                                                              MD(2, 1)))})
                  .ok());
  auto first = TemporalDelete(&r, kVt, MD(3, 1), [](const Tuple& t) {
    return t.value(0).AsInt64() == 1;
  });
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 1u);
  r.EnableModificationLog();
  ModificationLog* log = r.modification_log();
  const uint64_t logged = log->next_seq();
  auto rows = [&r] {
    std::vector<std::string> out;
    for (const Tuple& t : r.tuples()) out.push_back(t.ToString());
    return out;
  };
  const std::vector<std::string> before = rows();
  const ModificationFilter all = [](const Tuple&) { return true; };

  auto deleted = TemporalDelete(&r, kVt, MD(5, 1), all);
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ(*deleted, 0u);
  auto updated = TemporalUpdate(&r, kVt, MD(4, 1), all, [](const Tuple& t) {
    std::vector<Value> values = t.values();
    values[1] = Value::String("lead");
    return values;
  });
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(*updated, 0u);
  EXPECT_EQ(rows(), before);
  EXPECT_EQ(log->next_seq(), logged);
  EXPECT_EQ(r.tuple(0).value(kVt).AsOngoingInterval().ToString(),
            "[01/01, +03/01)");
}

// --- chunk skipping ---------------------------------------------------------

// The table of the chunk-skip tests: ID, then a STRING column, so that
// `Name = 1` fails with a TypeError on any row it is tested on.
Schema NamedSchema() {
  return Schema({{"ID", ValueType::kInt64},
                 {"Name", ValueType::kString},
                 {"VT", ValueType::kOngoingInterval}});
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr TimePoint kSkipTc = 100;
constexpr size_t kTailRows = 37;

// Row i opens at i % 150: one row in three opens at or after kSkipTc,
// so a DELETE or UPDATE at kSkipTc swap-removes it (its closed valid
// time is always empty), and the others close in place.
void AddRow(OngoingRelation* r, size_t i, int64_t id) {
  ASSERT_TRUE(r->Insert({Value::Int64(id),
                         Value::String(i % 2 == 0 ? "even" : "odd"),
                         Value::Ongoing(OngoingInterval::SinceUntilNow(
                             static_cast<TimePoint>(i % 150)))})
                  .ok());
}

// Four full chunks and a tail, IDs chosen so that each chunk's range has
// its own shape: chunk 0 holds 0..255 ascending, chunk 1 holds 1000 in
// every row, chunk 2 holds 2255..2000 descending, chunk 3 holds
// 3000..3253 plus the INT64 extremes, and the tail 5000..5036.
OngoingRelation ChunkedTable() {
  constexpr size_t kChunk = TupleStore::kChunkSize;
  OngoingRelation r(NamedSchema());
  size_t i = 0;
  for (size_t k = 0; k < kChunk; ++k, ++i) {
    AddRow(&r, i, static_cast<int64_t>(k));
  }
  for (size_t k = 0; k < kChunk; ++k, ++i) AddRow(&r, i, 1000);
  for (size_t k = 0; k < kChunk; ++k, ++i) {
    AddRow(&r, i, 2255 - static_cast<int64_t>(k));
  }
  for (size_t k = 0; k < kChunk; ++k, ++i) {
    const int64_t id = k == 17    ? kMin
                       : k == 200 ? kMax
                                  : 3000 + static_cast<int64_t>(k);
    AddRow(&r, i, id);
  }
  for (size_t k = 0; k < kTailRows; ++k, ++i) {
    AddRow(&r, i, 5000 + static_cast<int64_t>(k));
  }
  EXPECT_EQ(r.tuples().num_full_chunks(), 4u);
  return r;
}

std::vector<Value> Rename(const Tuple& t) {
  std::vector<Value> values = t.values();
  values[1] = Value::String("renamed");
  return values;
}

// Runs one DELETE or UPDATE at kSkipTc on a copy of `table` with the
// SQL-built filter of `where`, and on another copy with the same tuple
// test as a plain lambda, which has no chunk test and so tests every
// row; both must agree on the changed-row count, the resulting table
// (tuple by tuple, in order, since both edit the same matches) and the
// Status. Returns how many tuples the SQL-built filter tested.
size_t ExpectSkipIsExact(const OngoingRelation& table, const ExprPtr& where,
                         bool update) {
  SCOPED_TRACE(where->ToString() + (update ? " (UPDATE)" : " (DELETE)"));
  const ModificationFilter built =
      sql::MakeModificationFilter(where, table.schema());
  EXPECT_TRUE(built.chunk_test());
  size_t tested = 0;
  const ModificationFilter counted(
      [&tested, built](const Tuple& t) {
        ++tested;
        return built(t);
      },
      built.chunk_test());
  const ModificationFilter plain = [built](const Tuple& t) {
    return built(t);
  };
  auto run = [&](const ModificationFilter& filter, OngoingRelation* r) {
    return update ? TemporalUpdate(r, kVt, kSkipTc, filter, Rename)
                  : TemporalDelete(r, kVt, kSkipTc, filter);
  };
  OngoingRelation skipped = table;
  OngoingRelation every_row = table;
  const Result<size_t> got = run(counted, &skipped);
  const Result<size_t> want = run(plain, &every_row);
  EXPECT_EQ(got.status().code(), want.status().code());
  EXPECT_EQ(got.status().message(), want.status().message());
  if (got.ok() && want.ok()) {
    EXPECT_EQ(*got, *want);
  }
  EXPECT_TRUE(std::equal(skipped.tuples().begin(), skipped.tuples().end(),
                         every_row.tuples().begin(), every_row.tuples().end()));
  return tested;
}

// Every operator, in both orientations, against the literals that sit
// on and around `table`'s chunk boundaries and the INT64 extremes.
void ExpectEveryComparisonIsExact(const OngoingRelation& table) {
  const int64_t literals[] = {
      kMin, kMin + 1, -1,   0,    1,    254,  255,  256,  999,      1000,
      1001, 1999,     2000, 2255, 2256, 2500, 3000, 3253, 5000,     5036,
      kMax - 1, kMax};
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kEq,
                           CompareOp::kNe, CompareOp::kGe, CompareOp::kGt};
  for (const int64_t x : literals) {
    for (const CompareOp op : ops) {
      for (const bool update : {false, true}) {
        ExpectSkipIsExact(table, Compare(op, Col("ID"), Lit(x)), update);
        ExpectSkipIsExact(table, Compare(op, Lit(x), Col("ID")), update);
      }
    }
  }
}

TEST(ModificationsTest, ChunkSkipIsExactForEveryComparison) {
  const OngoingRelation table = ChunkedTable();
  ExpectEveryComparisonIsExact(table);
  // The skip happens. Chunk 3 spans the whole INT64 range, so only a
  // literal beyond an extreme rules it out: ID = 10 tests chunks 0 and
  // 3 and the tail, a != on the constant chunk's value passes over that
  // chunk alone, and ID < INT64_MIN tests the tail alone.
  EXPECT_EQ(ExpectSkipIsExact(table, Eq(Col("ID"), Lit(int64_t{10})), false),
            2 * TupleStore::kChunkSize + kTailRows);
  EXPECT_EQ(ExpectSkipIsExact(table,
                              Compare(CompareOp::kNe, Col("ID"),
                                      Lit(int64_t{1000})),
                              false),
            table.size() - TupleStore::kChunkSize);
  EXPECT_EQ(ExpectSkipIsExact(table, Lt(Col("ID"), Lit(kMin)), false),
            kTailRows);
}

TEST(ModificationsTest, ChunkSkipStopsAtAnAtomThatCanFail) {
  const OngoingRelation table = ChunkedTable();
  OngoingRelation no_tail(NamedSchema());
  for (size_t i = 0; i < 2 * TupleStore::kChunkSize; ++i) {
    AddRow(&no_tail, i, static_cast<int64_t>(i));
  }
  const ExprPtr name_is_int = Eq(Col("Name"), Lit(int64_t{1}));
  for (const bool update : {false, true}) {
    // Name = 1 runs first and fails on the first row, though ID = -5
    // rules out every chunk of a table without a tail.
    EXPECT_EQ(ExpectSkipIsExact(
                  no_tail, And(name_is_int, Eq(Col("ID"), Lit(int64_t{-5}))),
                  update),
              1u);
    // After the INT64 atom it is never reached on a ruled-out chunk
    // (all but chunk 3, which spans the INT64 range), and a row the
    // INT64 atom holds on fails it.
    EXPECT_EQ(ExpectSkipIsExact(
                  table, And(Eq(Col("ID"), Lit(int64_t{-5})), name_is_int),
                  update),
              TupleStore::kChunkSize + kTailRows);
    ExpectSkipIsExact(table, And(Eq(Col("ID"), Lit(int64_t{7})), name_is_int),
                      update);
    // Any other atom kind ends the run too: a column-to-column
    // comparison, then one on a column that is not INT64.
    ExpectSkipIsExact(
        table, And(Lt(Col("ID"), Col("ID")), Eq(Col("ID"), Lit(int64_t{-5}))),
        update);
    ExpectSkipIsExact(
        table,
        And(Eq(Col("Name"), Lit("odd")), Eq(Col("ID"), Lit(int64_t{-5}))),
        update);
    // A run of several INT64 atoms rules a chunk out by any of them:
    // the second rules out chunks 0 and 1.
    EXPECT_EQ(ExpectSkipIsExact(table,
                                And(Compare(CompareOp::kGe, Col("ID"),
                                            Lit(int64_t{0})),
                                    Lt(Lit(int64_t{2100}), Col("ID"))),
                                update),
              2 * TupleStore::kChunkSize + kTailRows);
  }
}

TEST(ModificationsTest, ChunkSkipIsExactOnRewrittenChunks) {
  // Rewrite the table through SQL-built filters, so that the synopses of
  // the chunks involved are computed before the rewrite. ID 100 opens at
  // 100 = kSkipTc, so its DELETE swap-removes it and moves the tail's
  // last row (ID 5036) into chunk 0; the UPDATE of every ID up to 2255
  // closes or swap-removes the rows of chunks 0 to 2 (and ID INT64_MIN)
  // and appends their new versions, which fill new chunks.
  OngoingRelation table = ChunkedTable();
  ASSERT_EQ(table.tuple(100).value(kVt).AsOngoingInterval().ToString(),
            OngoingInterval::SinceUntilNow(kSkipTc).ToString());
  auto deleted = TemporalDelete(
      &table, kVt, kSkipTc,
      sql::MakeModificationFilter(Eq(Col("ID"), Lit(int64_t{100})),
                                  table.schema()));
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  ASSERT_EQ(*deleted, 1u);
  ASSERT_EQ(table.tuple(100).value(0).AsInt64(), 5036);
  auto updated = TemporalUpdate(
      &table, kVt, kSkipTc,
      sql::MakeModificationFilter(
          Compare(CompareOp::kLe, Col("ID"), Lit(int64_t{2255})),
          table.schema()),
      Rename);
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_EQ(*updated, 3 * TupleStore::kChunkSize);
  ASSERT_GT(table.tuples().num_full_chunks(), 4u);
  ExpectEveryComparisonIsExact(table);

  // A swap-remove while the tail is empty makes the last full chunk the
  // tail. Row 400 opens at 400 % 150 = kSkipTc, so its DELETE removes
  // it.
  OngoingRelation full_chunks_only(NamedSchema());
  for (size_t i = 0; i < 2 * TupleStore::kChunkSize; ++i) {
    AddRow(&full_chunks_only, i, static_cast<int64_t>(i));
  }
  ASSERT_EQ(ExpectSkipIsExact(full_chunks_only,
                              Eq(Col("ID"), Lit(int64_t{0})), false),
            TupleStore::kChunkSize);
  auto emptied = TemporalDelete(
      &full_chunks_only, kVt, kSkipTc,
      sql::MakeModificationFilter(
          Eq(Col("ID"), Lit(int64_t{400})),
          full_chunks_only.schema()));
  ASSERT_TRUE(emptied.ok()) << emptied.status();
  ASSERT_EQ(*emptied, 1u);
  ASSERT_EQ(full_chunks_only.tuples().num_full_chunks(), 1u);
  ExpectEveryComparisonIsExact(full_chunks_only);
}

TEST(ModificationsTest, ChunkSkipIsExactOnATailOrAnEmptyTable) {
  OngoingRelation tail_only(NamedSchema());
  for (size_t i = 0; i < kTailRows; ++i) {
    AddRow(&tail_only, i, static_cast<int64_t>(i));
  }
  ASSERT_EQ(tail_only.tuples().num_full_chunks(), 0u);
  ExpectEveryComparisonIsExact(tail_only);
  ExpectEveryComparisonIsExact(OngoingRelation(NamedSchema()));
}

TEST(ModificationsTest, PinnedVersionKeepsItsChunkSynopses) {
  // An older version shares its chunks, and their synopses, with a newer
  // copy until the newer one edits them: the edit copies a chunk, and
  // the copy starts with no synopsis of its own.
  const OngoingRelation older = ChunkedTable();
  auto ranges = [](const OngoingRelation& r) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (size_t c = 0; c < r.tuples().num_full_chunks(); ++c) {
      const ChunkSynopsis::Int64Range* range =
          r.tuples().synopsis(c).Int64At(0);
      EXPECT_NE(range, nullptr);
      if (range != nullptr) out.emplace_back(range->min, range->max);
      // Name is STRING and VT a PERIOD, so neither has a range.
      EXPECT_EQ(r.tuples().synopsis(c).Int64At(1), nullptr);
      EXPECT_EQ(r.tuples().synopsis(c).Int64At(2), nullptr);
    }
    return out;
  };
  const std::vector<std::pair<int64_t, int64_t>> expected = {
      {0, 255}, {1000, 1000}, {2000, 2255}, {kMin, kMax}};
  ASSERT_EQ(ranges(older), expected);
  const auto rows = Fingerprint(older);

  OngoingRelation newer = older;
  ASSERT_TRUE(TemporalDelete(&newer, kVt, kSkipTc,
                             sql::MakeModificationFilter(
                                 Eq(Col("ID"), Lit(int64_t{100})),
                                 newer.schema()))
                  .ok());
  ASSERT_TRUE(TemporalUpdate(&newer, kVt, kSkipTc,
                             sql::MakeModificationFilter(
                                 Compare(CompareOp::kNe, Col("ID"),
                                         Lit(int64_t{3})),
                                 newer.schema()),
                             Rename)
                  .ok());
  // Chunk 0 of the newer version now holds ID 5036, moved in by the
  // swap-remove of ID 100; the older version's chunk 0 does not.
  EXPECT_EQ(ranges(newer).front(), (std::pair<int64_t, int64_t>{0, 5036}));
  EXPECT_EQ(ranges(older), expected);
  EXPECT_EQ(Fingerprint(older), rows);
  ExpectEveryComparisonIsExact(older);
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
