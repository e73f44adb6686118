// Unit tests of the serving layer (server/catalog.h, server/session.h):
// the thread-safe catalog's commit/publish protocol, snapshot pinning
// and stability, time travel over the version ring (OutOfRange below
// it), the read-only snapshot views, session statement execution with
// per-session knobs, and the SessionManager.
//
// The *concurrent* equivalence guarantees are covered by
// concurrent_serving_test.cc; this suite pins down the single-threaded
// semantics those tests build on.
#include "server/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "relation/modifications.h"
#include "server/catalog.h"
#include "sql/parser.h"
#include "sql/statement.h"
#include "testing/plan_fuzz.h"

namespace ongoingdb {
namespace server {
namespace {

using plan_fuzz::Fingerprint;

Schema BugsSchema() {
  return Schema({{"BID", ValueType::kInt64},
                 {"C", ValueType::kString},
                 {"VT", ValueType::kOngoingInterval}});
}

std::vector<Value> BugRow(int64_t bid, const std::string& component,
                          TimePoint since) {
  return {Value::Int64(bid), Value::String(component),
          Value::Ongoing(OngoingInterval::SinceUntilNow(since))};
}

// --- Catalog ----------------------------------------------------------------

TEST(ServerCatalogTest, CommitsPublishMonotoneSequences) {
  Catalog catalog;
  EXPECT_EQ(catalog.commit_seq(), 0u);

  auto created = catalog.CreateTable("Bugs", BugsSchema());
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(*created, 1u);

  auto first = catalog.Insert("Bugs", BugRow(500, "spam", 10));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 2u);
  auto second = catalog.Insert("Bugs", BugRow(501, "ui", 20));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 3u);
  EXPECT_EQ(catalog.commit_seq(), 3u);

  // Duplicate creation and unknown tables fail without consuming a
  // sequence number.
  EXPECT_FALSE(catalog.CreateTable("Bugs", BugsSchema()).ok());
  EXPECT_FALSE(catalog.Insert("Nope", BugRow(1, "x", 0)).ok());
  // A malformed row (arity) fails validation before any mutation.
  EXPECT_FALSE(catalog.Insert("Bugs", {Value::Int64(1)}).ok());
  EXPECT_EQ(catalog.commit_seq(), 3u);
  auto next = catalog.Insert("Bugs", BugRow(502, "perf", 30));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 4u);
}

TEST(ServerCatalogTest, PinnedSnapshotsAreStableAcrossCommits) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("Bugs", BugsSchema()).ok());
  ASSERT_TRUE(catalog.Insert("Bugs", BugRow(500, "spam", 10)).ok());

  Snapshot before = catalog.PinSnapshot();
  auto before_data = before.Get("Bugs");
  ASSERT_TRUE(before_data.ok());
  const std::multiset<std::string> want = Fingerprint(**before_data);
  EXPECT_EQ((*before_data)->size(), 1u);

  ASSERT_TRUE(catalog.Insert("Bugs", BugRow(501, "ui", 20)).ok());
  ASSERT_TRUE(catalog.Insert("Bugs", BugRow(502, "perf", 30)).ok());

  // The pinned snapshot keeps resolving the exact pre-commit version.
  auto still = before.Get("Bugs");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(Fingerprint(**still), want);
  EXPECT_EQ(before.commit_seq(), 2u);

  // A fresh pin observes every commit.
  Snapshot after = catalog.PinSnapshot();
  auto after_data = after.Get("Bugs");
  ASSERT_TRUE(after_data.ok());
  EXPECT_EQ((*after_data)->size(), 3u);
  EXPECT_EQ(after.commit_seq(), 4u);

  // Unknown tables are NotFound at snapshot resolution.
  EXPECT_FALSE(after.Get("Nope").ok());
  EXPECT_EQ(after.Names(), std::vector<std::string>{"Bugs"});
}

TEST(ServerCatalogTest, TimeTravelWithinRingAndOutOfRangeBelowIt) {
  Catalog catalog(/*version_ring_cap=*/3);
  ASSERT_TRUE(catalog.CreateTable("Bugs", BugsSchema()).ok());  // seq 1
  for (int i = 0; i < 5; ++i) {                                 // seq 2..6
    ASSERT_TRUE(
        catalog.Insert("Bugs", BugRow(500 + i, "spam", 10 * (i + 1))).ok());
  }
  Snapshot snap = catalog.PinSnapshot();
  ASSERT_EQ(snap.commit_seq(), 6u);

  // The last 3 versions (seq 4, 5, 6) travel lock-free.
  for (uint64_t seq = 4; seq <= 6; ++seq) {
    auto at = snap.GetAsOf("Bugs", seq);
    ASSERT_TRUE(at.ok()) << at.status();
    EXPECT_EQ((*at)->size(), static_cast<size_t>(seq - 1));
  }
  // A sequence above the snapshot resolves to the newest <= seq.
  auto above = snap.GetAsOf("Bugs", 99);
  ASSERT_TRUE(above.ok());
  EXPECT_EQ((*above)->size(), 5u);

  // Below the ring: a typed refusal — the versions there are gone,
  // including the table's creation and the sequence before it.
  for (uint64_t seq = 0; seq < 4; ++seq) {
    auto gone = snap.GetAsOf("Bugs", seq);
    ASSERT_FALSE(gone.ok()) << "seq " << seq;
    EXPECT_EQ(gone.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(ServerCatalogTest, RingAnswersEveryRetainedSequenceAsThePlainReplay) {
  // The served-table contract: every sequence the ring retains resolves
  // to the committed prefix replayed through the plain Torp functions,
  // older sequences are OutOfRange, and a failing write consumes no
  // sequence. One commit to a second table leaves a gap in Bugs' ring.
  constexpr size_t kRingCap = 3;
  Catalog catalog(kRingCap);

  // Every successful Bugs commit, replayable on a plain relation.
  struct Committed {
    uint64_t seq;
    std::function<void(OngoingRelation*)> apply;
  };
  std::vector<Committed> committed;
  auto replay = [&committed](uint64_t seq) {
    OngoingRelation plain(BugsSchema());
    for (const Committed& c : committed) {
      if (c.seq <= seq) c.apply(&plain);
    }
    return Fingerprint(plain);
  };

  auto created = catalog.CreateTable("Bugs", BugsSchema());
  ASSERT_TRUE(created.ok()) << created.status();
  committed.push_back({*created, [](OngoingRelation*) {}});
  ASSERT_TRUE(
      catalog.CreateTable("Flat", Schema({{"X", ValueType::kInt64}})).ok());

  auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    Snapshot snap = catalog.PinSnapshot();
    const uint64_t top = snap.commit_seq();
    const size_t kept = std::min(kRingCap, committed.size());
    const uint64_t oldest = committed[committed.size() - kept].seq;
    for (uint64_t seq = 0; seq <= top; ++seq) {
      SCOPED_TRACE("seq " + std::to_string(seq));
      auto at = snap.GetAsOf("Bugs", seq);
      if (seq < oldest) {
        ASSERT_FALSE(at.ok());
        EXPECT_EQ(at.status().code(), StatusCode::kOutOfRange);
      } else {
        ASSERT_TRUE(at.ok()) << at.status();
        EXPECT_EQ(Fingerprint(**at), replay(seq));
      }
    }
  };
  check("after create");

  const std::string components[] = {"spam", "ui", "perf"};
  ModificationFilter is_ui = [](const Tuple& t) {
    return t.value(1).AsString() == "ui";
  };
  auto triage = [](const Tuple& t) {
    std::vector<Value> values = t.values();
    values[1] = Value::String("triaged");
    return values;
  };
  for (int i = 0; i < 14; ++i) {
    const TimePoint tc = 100 + 10 * i;
    Result<uint64_t> seq = Status::Internal("no commit");
    std::function<void(OngoingRelation*)> apply;
    if (i % 3 == 0 || i == 1) {
      std::vector<Value> row =
          BugRow(500 + i, components[(i / 3 + 1) % 3], 10 * i);
      seq = catalog.Insert("Bugs", row);
      apply = [row](OngoingRelation* r) { ASSERT_TRUE(r->Insert(row).ok()); };
    } else if (i % 3 == 1) {
      const int64_t bid = 500 + i - 4;
      ModificationFilter is_bid = [bid](const Tuple& t) {
        return t.value(0).AsInt64() == bid;
      };
      seq = catalog.TemporalDeleteWhere("Bugs", tc, is_bid);
      apply = [tc, is_bid](OngoingRelation* r) {
        ASSERT_TRUE(TemporalDelete(r, 2, tc, is_bid).ok());
      };
    } else {
      seq = catalog.TemporalUpdateWhere("Bugs", tc, is_ui, triage);
      apply = [tc, is_ui, triage](OngoingRelation* r) {
        ASSERT_TRUE(TemporalUpdate(r, 2, tc, is_ui, triage).ok());
      };
    }
    ASSERT_TRUE(seq.ok()) << "commit " << i << ": " << seq.status();
    EXPECT_EQ(*seq, catalog.commit_seq());
    committed.push_back({*seq, std::move(apply)});
    check("after commit " + std::to_string(i));

    if (i == 5) {
      ASSERT_TRUE(catalog.Insert("Flat", {Value::Int64(7)}).ok());
      check("after the Flat commit");
    }
    if (i == 8) {
      // Failing writes: a DELETE on a table without a PERIOD column and
      // a wrong-arity INSERT. Neither consumes a sequence.
      const uint64_t before = catalog.commit_seq();
      EXPECT_FALSE(catalog.TemporalDeleteWhere("Flat", tc, is_ui).ok());
      EXPECT_FALSE(catalog.Insert("Bugs", {Value::Int64(1)}).ok());
      EXPECT_EQ(catalog.commit_seq(), before);
      check("after the failing writes");
    }
  }
}

TEST(ServerCatalogTest, ChurnLeavesOnlyTheRingAnswerable) {
  constexpr size_t kRingCap = 4;
  Catalog catalog(kRingCap);
  ASSERT_TRUE(catalog.CreateTable("Bugs", BugsSchema()).ok());

  // Churn: each round inserts a row valid from 100 and deletes it at
  // tc 5, making the closed valid time always-empty, so the delete
  // removes the row.
  auto churn = [&catalog](int64_t bid) {
    EXPECT_TRUE(catalog.Insert("Bugs", BugRow(bid, "gc", 100)).ok());
    size_t deleted = 0;
    auto del = catalog.TemporalDeleteWhere(
        "Bugs", 5,
        [bid](const Tuple& t) { return t.value(0).AsInt64() == bid; },
        &deleted);
    EXPECT_TRUE(del.ok()) << del.status();
    EXPECT_EQ(deleted, 1u);
  };

  // 40 rounds = 80 commits: an order of magnitude past the ring. The
  // table keeps its current rows only, not one row per round.
  constexpr int kRounds = 40;
  for (int64_t i = 0; i < kRounds; ++i) churn(600 + i);
  auto rows = catalog.MasterVersionCount("Bugs");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, 0u);

  // Only the last kRingCap sequences stay answerable (every commit
  // publishes this table, so the ring is commit-dense), and they are
  // version-accurate: the final round's insert and delete.
  Snapshot snap = catalog.PinSnapshot();
  const uint64_t top = snap.commit_seq();
  const uint64_t oldest = top - kRingCap + 1;
  for (uint64_t seq = oldest; seq <= top; ++seq) {
    EXPECT_TRUE(snap.GetAsOf("Bugs", seq).ok()) << "seq " << seq;
  }
  auto at_insert = snap.GetAsOf("Bugs", top - 1);
  ASSERT_TRUE(at_insert.ok()) << at_insert.status();
  EXPECT_EQ((*at_insert)->size(), 1u);
  auto at_delete = snap.GetAsOf("Bugs", top);
  ASSERT_TRUE(at_delete.ok());
  EXPECT_EQ((*at_delete)->size(), 0u);

  // Below the ring: a typed refusal, not a silently wrong answer.
  auto below = snap.GetAsOf("Bugs", oldest - 1);
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.status().code(), StatusCode::kOutOfRange);
}

TEST(ServerCatalogTest, ServedModificationsMatchPlainOps) {
  // The serving catalog's current state after a DML sequence equals the
  // same sequence of plain Torp modifications on a plain relation — the
  // invariant the concurrent equivalence replay relies on.
  OngoingRelation plain(BugsSchema());
  ASSERT_TRUE(plain.Insert(BugRow(500, "spam", 10)).ok());
  ASSERT_TRUE(plain.Insert(BugRow(501, "spam", 20)).ok());
  ASSERT_TRUE(plain.Insert(BugRow(502, "ui", 30)).ok());

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("Bugs", plain).ok());

  ModificationFilter is_spam = [](const Tuple& t) {
    return t.value(1).AsString() == "spam";
  };
  auto updater = [](const Tuple& t) {
    std::vector<Value> values = t.values();
    values[1] = Value::String("triaged");
    return values;
  };

  size_t deleted = 0;
  auto del = catalog.TemporalDeleteWhere("Bugs", 40, is_spam, &deleted);
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ(deleted, 2u);
  ModificationFilter is_ui = [](const Tuple& t) {
    return t.value(1).AsString() == "ui";
  };
  size_t updated = 0;
  auto upd = catalog.TemporalUpdateWhere("Bugs", 50, is_ui, updater, &updated);
  ASSERT_TRUE(upd.ok()) << upd.status();
  EXPECT_EQ(updated, 1u);

  ASSERT_TRUE(TemporalDelete(&plain, 2, 40, is_spam).ok());
  ASSERT_TRUE(TemporalUpdate(&plain, 2, 50, is_ui, updater).ok());

  auto served = catalog.PinSnapshot().Get("Bugs");
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(Fingerprint(**served), Fingerprint(plain));

  // DML on a table without a PERIOD column is rejected cleanly.
  ASSERT_TRUE(
      catalog.CreateTable("Flat", Schema({{"X", ValueType::kInt64}})).ok());
  EXPECT_FALSE(
      catalog.TemporalDeleteWhere("Flat", 10, is_spam, nullptr).ok());

  // An updater row the schema rejects (here one value short, which the
  // update would otherwise write past) fails the commit: no new
  // sequence, the current version unchanged.
  auto one_value = [](const Tuple& t) {
    return std::vector<Value>{t.value(0)};
  };
  const uint64_t before = catalog.commit_seq();
  auto short_row = catalog.TemporalUpdateWhere("Bugs", 60, is_ui, one_value);
  ASSERT_FALSE(short_row.ok());
  EXPECT_EQ(short_row.status().code(), StatusCode::kSchemaMismatch);
  EXPECT_EQ(catalog.commit_seq(), before);
  auto unchanged = catalog.PinSnapshot().Get("Bugs");
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(Fingerprint(**unchanged), Fingerprint(plain));
}

TEST(ServerCatalogTest, SnapshotViewIsReadOnly) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("Bugs", BugsSchema()).ok());
  ASSERT_TRUE(catalog.Insert("Bugs", BugRow(500, "spam", 10)).ok());

  sql::Catalog view = catalog.PinSnapshot().View();
  ASSERT_TRUE(view.Contains("Bugs"));
  ASSERT_TRUE(view.Get("Bugs").ok());
  // Mutations cannot sneak past the commit path through a view.
  EXPECT_FALSE(view.GetMutable("Bugs").ok());
  // Reads through the view run the full query pipeline.
  auto result = sql::RunQuery("SELECT * FROM Bugs", view);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
}

// --- Session ----------------------------------------------------------------

TEST(SessionTest, StatementsRoundTripThroughTheServingPath) {
  Catalog catalog;
  SessionManager manager(&catalog);
  auto session = manager.CreateSession();

  auto created = session->Execute(
      "CREATE TABLE Bugs (BID INT, C TEXT, VT PERIOD)");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->snapshot_seq, 1u);

  auto inserted = session->Execute(
      "INSERT INTO Bugs VALUES (500, 'spam', PERIOD ['01/25', NOW))");
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(inserted->result.affected, 1u);
  EXPECT_EQ(inserted->snapshot_seq, 2u);
  ASSERT_TRUE(session->Execute("INSERT INTO Bugs VALUES (501, 'ui', "
                               "PERIOD ['03/30', NOW))")
                  .ok());

  auto selected = session->Execute("SELECT * FROM Bugs WHERE BID = 500");
  ASSERT_TRUE(selected.ok()) << selected.status();
  ASSERT_TRUE(selected->result.relation.has_value());
  EXPECT_EQ(selected->result.affected, 1u);
  EXPECT_EQ(selected->snapshot_seq, 3u);
  EXPECT_EQ(session->context().snapshot_seq(), 3u);

  auto updated = session->Execute(
      "UPDATE Bugs SET C = 'triaged' WHERE BID = 500 AT DATE '06/01'");
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(updated->result.affected, 1u);

  auto deleted = session->Execute(
      "DELETE FROM Bugs WHERE BID = 501 AT DATE '07/01'");
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ(deleted->result.affected, 1u);

  // Errors are clean: unknown table, malformed SQL.
  EXPECT_FALSE(session->Execute("SELECT * FROM Nope").ok());
  EXPECT_FALSE(session->Execute("FROBNICATE").ok());
}

TEST(SessionTest, SetKnobsFlowIntoTheSession) {
  Catalog catalog;
  SessionManager manager(&catalog);
  auto session = manager.CreateSession();

  ASSERT_TRUE(session->Execute("SET workers = 4;").ok());
  EXPECT_EQ(session->options().workers, 4u);
  ASSERT_TRUE(session->Execute("SET memory_limit_mb = 64;").ok());
  EXPECT_EQ(session->options().memory_limit_bytes, 64u << 20);
  ASSERT_TRUE(session->Execute("SET timeout_ms = 250").ok());
  EXPECT_EQ(session->options().timeout_ms, 250);
  ASSERT_TRUE(session->Execute("SET batch_size = 256;").ok());
  EXPECT_EQ(session->options().batch_size, 256u);
  ASSERT_TRUE(session->Execute("SET batch_size = 0;").ok());
  EXPECT_EQ(session->options().batch_size, 0u);

  // workers is clamped to >= 1; 0 disables the budget.
  ASSERT_TRUE(session->Execute("SET workers = 0;").ok());
  EXPECT_EQ(session->options().workers, 1u);
  ASSERT_TRUE(session->Execute("SET memory_limit_mb = 0;").ok());
  EXPECT_EQ(session->options().memory_limit_bytes, 0u);

  // Unknown knobs and malformed values are rejected.
  EXPECT_FALSE(session->Execute("SET bogus = 1;").ok());
  EXPECT_FALSE(session->Execute("SET workers = 'two';").ok());
  EXPECT_FALSE(session->Execute("SET workers = 1; extra").ok());

  // Values that would break a knob's arithmetic are rejected with the
  // accepted range, and the previous value stays: a 10^9-slot batch is
  // built eagerly, 2^44 MB shifts to a 0 (unlimited) byte budget, and a
  // timeout past ~9.2e12 ms overflows the nanosecond deadline.
  ASSERT_TRUE(session->Execute("SET memory_limit_mb = 64;").ok());
  ASSERT_TRUE(session->Execute("SET timeout_ms = 250").ok());
  ASSERT_TRUE(session->Execute("SET batch_size = 256;").ok());
  const std::string max_batch = std::to_string(kMaxSessionBatchSize);
  const std::string batch_range = "[0, " + max_batch + "]";
  const std::string timeout_range = "[0, 4398046511104]";
  const std::pair<std::string, std::string> rejected_sets[] = {
      {"SET batch_size = 1000000000;", batch_range},
      {"SET batch_size = " + std::to_string(kMaxSessionBatchSize + 1),
       batch_range},
      {"SET memory_limit_mb = 17592186044416;", "[0, 17592186044415]"},
      {"SET timeout_ms = 9300000000000;", timeout_range},
      {"SET timeout_ms = 4398046511105;", timeout_range}};
  for (const auto& [statement, range] : rejected_sets) {
    SCOPED_TRACE(statement);
    auto rejected = session->Execute(statement);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find(range), std::string::npos)
        << rejected.status().message();
  }
  EXPECT_EQ(session->options().memory_limit_bytes, 64u << 20);
  EXPECT_EQ(session->options().timeout_ms, 250);
  EXPECT_EQ(session->options().batch_size, 256u);

  // The largest accepted value of each knob still runs a SELECT.
  ASSERT_TRUE(
      session->Execute("CREATE TABLE Bugs (BID INT, C TEXT, VT PERIOD)")
          .ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session
                    ->Execute("INSERT INTO Bugs VALUES (" +
                              std::to_string(i) +
                              ", 'spam', PERIOD ['01/01', NOW))")
                    .ok());
  }
  for (const std::string& set : {"SET batch_size = " + max_batch,
                                 std::string("SET memory_limit_mb = "
                                             "17592186044415"),
                                 std::string("SET timeout_ms = "
                                             "4398046511104")}) {
    SCOPED_TRACE(set);
    ASSERT_TRUE(session->Execute(set).ok());
    auto selected = session->Execute("SELECT * FROM Bugs WHERE BID < 3");
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    EXPECT_EQ(selected->result.affected, 3u);
  }
  EXPECT_EQ(session->options().batch_size, kMaxSessionBatchSize);
  EXPECT_EQ(session->options().memory_limit_bytes,
            uint64_t{17592186044415} << 20);
  EXPECT_EQ(session->options().timeout_ms, int64_t{4398046511104});
}

TEST(SessionTest, MemoryBudgetAndTimeoutApplyPerStatement) {
  Catalog catalog;
  SessionManager manager(&catalog);
  auto session = manager.CreateSession();
  ASSERT_TRUE(
      session->Execute("CREATE TABLE Bugs (BID INT, C TEXT, VT PERIOD)")
          .ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(session
                    ->Execute("INSERT INTO Bugs VALUES (" +
                              std::to_string(i) +
                              ", 'spam', PERIOD ['01/01', NOW))")
                    .ok());
  }

  SessionOptions tiny;
  tiny.memory_limit_bytes = 8;  // smaller than any materialized tuple
  auto budgeted = manager.CreateSession(tiny);
  auto exhausted = budgeted->Execute("SELECT * FROM Bugs WHERE BID < 10");
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  // The budget is per statement, not sticky poison: lifting it via SET
  // makes the next statement pass.
  ASSERT_TRUE(budgeted->Execute("SET memory_limit_mb = 64;").ok());
  EXPECT_TRUE(budgeted->Execute("SELECT * FROM Bugs WHERE BID < 10").ok());

  // A pre-cancelled context is rearmed by Execute's Reset.
  session->Cancel();
  EXPECT_TRUE(session->Execute("SELECT * FROM Bugs").ok());

  // batch_size = 1 forces the smallest drain batches; results are
  // unchanged (the batch capacity is a perf knob, not a semantic one).
  ASSERT_TRUE(session->Execute("SET batch_size = 1;").ok());
  auto one_by_one = session->Execute("SELECT * FROM Bugs WHERE BID < 10");
  ASSERT_TRUE(one_by_one.ok());
  EXPECT_EQ(one_by_one->result.affected, 10u);
}

TEST(SessionTest, PinnedSnapshotGivesRepeatableReads) {
  Catalog catalog;
  SessionManager manager(&catalog);
  auto reader = manager.CreateSession();
  auto writer = manager.CreateSession();
  ASSERT_TRUE(
      writer->Execute("CREATE TABLE Bugs (BID INT, C TEXT, VT PERIOD)").ok());
  ASSERT_TRUE(writer
                  ->Execute("INSERT INTO Bugs VALUES (500, 'spam', "
                            "PERIOD ['01/25', NOW))")
                  .ok());

  auto pinned_at = reader->PinSnapshot();
  ASSERT_TRUE(pinned_at.ok());
  EXPECT_EQ(*pinned_at, 2u);
  EXPECT_TRUE(reader->pinned());

  ASSERT_TRUE(writer
                  ->Execute("INSERT INTO Bugs VALUES (501, 'ui', "
                            "PERIOD ['03/30', NOW))")
                  .ok());

  // The pinned reader keeps seeing the world at sequence 2...
  auto repeat1 = reader->Execute("SELECT * FROM Bugs");
  ASSERT_TRUE(repeat1.ok());
  EXPECT_EQ(repeat1->result.affected, 1u);
  EXPECT_EQ(repeat1->snapshot_seq, 2u);
  auto repeat2 = reader->Execute("SELECT * FROM Bugs");
  ASSERT_TRUE(repeat2.ok());
  EXPECT_EQ(Fingerprint(*repeat1->result.relation),
            Fingerprint(*repeat2->result.relation));

  // ...and read-latest resumes after Unpin.
  reader->Unpin();
  EXPECT_FALSE(reader->pinned());
  auto fresh = reader->Execute("SELECT * FROM Bugs");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->result.affected, 2u);
  EXPECT_EQ(fresh->snapshot_seq, 3u);
}

TEST(SessionTest, ManagerTracksLiveSessions) {
  Catalog catalog;
  SessionManager manager(&catalog);
  EXPECT_EQ(manager.active_sessions(), 0u);
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(manager.active_sessions(), 2u);
  b.reset();
  EXPECT_EQ(manager.active_sessions(), 1u);
  auto c = manager.CreateSession();
  EXPECT_EQ(manager.active_sessions(), 2u);
  EXPECT_NE(c->id(), a->id());
}

}  // namespace
}  // namespace server
}  // namespace ongoingdb
