// Randomized concurrent serving equivalence: N reader sessions × M
// writer sessions hammer one serving catalog (server/catalog.h) at once;
// every reader pins transaction-time snapshots and runs SELECTs while
// writers commit inserts, temporal deletes, and temporal updates.
//
// The oracle: every write is logged with the commit sequence the catalog
// assigned it and the number of rows it changed. A write that changed no
// row published nothing and is logged with the sequence it read. After
// the threads join, each recorded read (pinned sequence S, result
// fingerprint) is checked against a serial replay — the committed prefix
// with sequence <= S applied in sequence order to a plain relation with
// the PLAIN Torp modifications, each changing as many rows as it did
// when served, then the same SELECT executed over that reconstruction.
// Equality means snapshot isolation held: the reader saw exactly the
// serial state at its pinned sequence, never a half-applied commit,
// never a torn mix of sequences — and each published version is the
// plain modification applied to its predecessor, end to end.
//
// A second test registers one relation in two catalogs, so that their
// writers race on the chunk synopses the shared chunks carry, and checks
// each catalog against the plain replay of its own writes.
//
// Runs under TSan in CI (with the fault-injection and thread-pool
// suites): the no-reader-side-lock read path is exactly the kind of code
// a race detector must vet, not just reason about.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "query/executor.h"
#include "query/optimizer.h"
#include "relation/modifications.h"
#include "server/catalog.h"
#include "server/session.h"
#include "sql/parser.h"
#include "sql/statement.h"
#include "testing/plan_fuzz.h"
#include "util/rng.h"

namespace ongoingdb {
namespace server {
namespace {

using plan_fuzz::Fingerprint;
using plan_fuzz::FuzzSeeds;
using plan_fuzz::MakeBase;
using plan_fuzz::StringPool;

constexpr size_t kReaders = 3;
constexpr size_t kWriters = 2;
constexpr int kWritesPerWriter = 18;
constexpr int kReadsPerReader = 14;
constexpr size_t kVtIndex = 3;  // MakeBase: {ID, K, S, VT}

// One committed write, logged with the sequence the catalog assigned it.
// Enough to replay the same mutation with the plain Torp ops.
struct LoggedWrite {
  enum Kind { kInsert, kDelete, kUpdate };
  uint64_t seq = 0;
  size_t changed = 1;  // rows the write changed; 0 published nothing
  Kind kind = kInsert;
  std::vector<Value> values;  // kInsert
  int64_t key = 0;            // kDelete/kUpdate: match T_K == key
  TimePoint tc = 0;           // kDelete/kUpdate
  std::string replacement;    // kUpdate: new T_S value
};

// One recorded read: the pinned sequence and what the reader saw.
struct LoggedRead {
  uint64_t seq = 0;
  size_t statement = 0;  // index into kStatements
  std::multiset<std::string> fingerprint;
};

const char* kStatements[] = {
    "SELECT * FROM T",
    "SELECT * FROM T WHERE T_K < 2",
    "SELECT T_ID, T_S FROM T WHERE T_VT OVERLAPS PERIOD ['10/20', NOW)",
};

ModificationFilter KeyFilter(int64_t key) {
  return [key](const Tuple& t) { return t.value(1).AsInt64() == key; };
}

std::function<std::vector<Value>(const Tuple&)> ReplaceS(
    std::string replacement) {
  return [replacement = std::move(replacement)](const Tuple& t) {
    std::vector<Value> values = t.values();
    values[2] = Value::String(replacement);
    return values;
  };
}

// Serial reference: the base relation with every logged write of
// sequence <= `seq` applied in sequence order, then `statement` parsed,
// optimized and executed over it directly, without a Session. The log
// is sorted by sequence, a write that changed rows before the no-op
// writes that read its state.
std::multiset<std::string> ReplayAt(const OngoingRelation& base,
                                    const std::vector<LoggedWrite>& log,
                                    uint64_t seq, size_t statement) {
  OngoingRelation state = base;
  for (const LoggedWrite& w : log) {
    if (w.seq > seq) break;  // log is sorted by seq
    switch (w.kind) {
      case LoggedWrite::kInsert:
        EXPECT_TRUE(state.Insert(w.values).ok());
        break;
      case LoggedWrite::kDelete: {
        auto deleted = TemporalDelete(&state, kVtIndex, w.tc, KeyFilter(w.key));
        EXPECT_TRUE(deleted.ok() && *deleted == w.changed)
            << "delete at seq " << w.seq;
        break;
      }
      case LoggedWrite::kUpdate: {
        auto updated = TemporalUpdate(&state, kVtIndex, w.tc, KeyFilter(w.key),
                                      ReplaceS(w.replacement));
        EXPECT_TRUE(updated.ok() && *updated == w.changed)
            << "update at seq " << w.seq;
        break;
      }
    }
  }
  sql::Catalog reference;
  reference.RegisterShared(
      "T", std::make_shared<const OngoingRelation>(std::move(state)));
  auto plan = sql::ParseQuery(kStatements[statement], reference);
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return {};
  auto optimized = Optimize(*plan);
  EXPECT_TRUE(optimized.ok()) << optimized.status();
  if (!optimized.ok()) return {};
  auto result = Execute(*optimized);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  return Fingerprint(*result);
}

// The readers-and-writers run and its serial-replay oracle over a base
// table of `base_rows` rows.
void ExpectReadersSeeExactSerialStates(uint64_t seed, size_t base_rows) {
  Rng base_rng(seed);
  const OngoingRelation base = MakeBase(base_rng, "T_", base_rows);
  const uint64_t base_seq = 1;  // RegisterTable publishes one commit

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("T", base).ok());
  SessionManager manager(&catalog);

  std::mutex log_mu;
  std::vector<LoggedWrite> write_log;
  std::vector<LoggedRead> read_log;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);

  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(seed * 1000 + w);
      for (int i = 0; i < kWritesPerWriter; ++i) {
        LoggedWrite entry;
        const double roll = rng.UniformReal();
        Result<uint64_t> committed = [&]() -> Result<uint64_t> {
          if (roll < 0.5) {
            entry.kind = LoggedWrite::kInsert;
            entry.values = {
                Value::Int64(static_cast<int64_t>(1000 + w * 100 +
                                                  static_cast<size_t>(i))),
                Value::Int64(rng.Uniform(0, 4)),
                Value::String(StringPool()[static_cast<size_t>(
                    rng.Uniform(0, 3))]),
                Value::Ongoing(
                    OngoingInterval::SinceUntilNow(rng.Uniform(0, 100)))};
            return catalog.Insert("T", entry.values);
          }
          if (roll < 0.75) {
            entry.kind = LoggedWrite::kDelete;
            entry.key = rng.Uniform(0, 4);
            entry.tc = rng.Uniform(0, 100);
            return catalog.TemporalDeleteWhere(
                "T", entry.tc, KeyFilter(entry.key), &entry.changed);
          }
          entry.kind = LoggedWrite::kUpdate;
          entry.key = rng.Uniform(0, 4);
          entry.tc = rng.Uniform(0, 100);
          entry.replacement =
              StringPool()[static_cast<size_t>(rng.Uniform(0, 3))];
          return catalog.TemporalUpdateWhere(
              "T", entry.tc, KeyFilter(entry.key),
              ReplaceS(entry.replacement), &entry.changed);
        }();
        ASSERT_TRUE(committed.ok()) << committed.status();
        entry.seq = *committed;
        std::lock_guard<std::mutex> lock(log_mu);
        write_log.push_back(std::move(entry));
      }
    });
  }

  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(seed * 2000 + r);
      SessionOptions options;
      options.workers = 1 + r % 2;  // mix serial and parallel drains
      auto session = manager.CreateSession(options);
      for (int i = 0; i < kReadsPerReader; ++i) {
        const size_t statement =
            static_cast<size_t>(rng.Uniform(0, 2));
        // Every few reads, hold one pinned snapshot across two SELECTs:
        // both must see the identical state (repeatable read) while the
        // writers race on.
        const bool hold_pin = rng.Bernoulli(0.3);
        if (hold_pin) {
          auto pinned = session->PinSnapshot();
          ASSERT_TRUE(pinned.ok()) << pinned.status();
        }
        auto first = session->Execute(kStatements[statement]);
        ASSERT_TRUE(first.ok()) << first.status();
        ASSERT_TRUE(first->result.relation.has_value());
        LoggedRead entry;
        entry.seq = first->snapshot_seq;
        entry.statement = statement;
        entry.fingerprint = Fingerprint(*first->result.relation);
        EXPECT_GE(entry.seq, base_seq);
        if (hold_pin) {
          auto second = session->Execute(kStatements[statement]);
          ASSERT_TRUE(second.ok()) << second.status();
          EXPECT_EQ(second->snapshot_seq, first->snapshot_seq);
          EXPECT_EQ(Fingerprint(*second->result.relation),
                    entry.fingerprint);
          session->Unpin();
        }
        std::lock_guard<std::mutex> lock(log_mu);
        read_log.push_back(std::move(entry));
      }
    });
  }

  for (std::thread& t : threads) t.join();

  // The sequences of the writes that changed rows are unique and
  // gapless: each published exactly once, and failed commits (there are
  // none here) consume nothing. A write that changed no row reports the
  // sequence of a state already published.
  ASSERT_EQ(write_log.size(), kWriters * kWritesPerWriter);
  std::sort(write_log.begin(), write_log.end(),
            [](const LoggedWrite& a, const LoggedWrite& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.changed > 0 && b.changed == 0;
            });
  uint64_t next_seq = base_seq + 1;
  for (const LoggedWrite& w : write_log) {
    if (w.changed > 0) {
      EXPECT_EQ(w.seq, next_seq++);
    } else {
      EXPECT_GE(w.seq, base_seq);
      EXPECT_LT(w.seq, next_seq);
    }
  }
  EXPECT_EQ(catalog.commit_seq(), next_seq - 1);

  // Every read equals the serial replay at its pinned sequence.
  ASSERT_EQ(read_log.size(), kReaders * kReadsPerReader);
  for (const LoggedRead& read : read_log) {
    SCOPED_TRACE("snapshot seq " + std::to_string(read.seq) +
                 ", statement " + std::to_string(read.statement));
    EXPECT_EQ(read.fingerprint,
              ReplayAt(base, write_log, read.seq, read.statement));
  }

  // And the final published state equals the full serial replay.
  auto final_state = catalog.PinSnapshot().Get("T");
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(Fingerprint(**final_state),
            ReplayAt(base, write_log, catalog.commit_seq(), 0));
}

class ConcurrentServingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrentServingTest, ReadersSeeExactSerialStatesAtTheirSnapshots) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  ExpectReadersSeeExactSerialStates(seed, 12);
}

TEST_P(ConcurrentServingTest, ReadersSeeExactSerialStatesOverSharedChunks) {
  // Three full chunks plus five rows: every version shares full chunks
  // with its predecessor while readers scan it, and each DELETE or
  // UPDATE writes copies of the chunks it touches.
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  ExpectReadersSeeExactSerialStates(seed, 3 * TupleStore::kChunkSize + 5);
}

TEST_P(ConcurrentServingTest, CatalogsSharingChunksEachEndAsTheirReplay) {
  // One relation registered in two catalogs: their versions share every
  // full chunk, and with it the synopsis a SQL DELETE or UPDATE computes
  // on a chunk's first use. A session on each catalog runs by-ID DELETEs
  // and UPDATEs at once, so both first scans compute the same chunks'
  // synopses; each catalog must then end as the plain Torp replay of its
  // own statements, whose lambda filters test every row.
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);
  constexpr size_t kRows = 16 * TupleStore::kChunkSize + 9;
  constexpr int kStatementsPerCatalog = 30;
  Rng base_rng(seed);
  const OngoingRelation base = MakeBase(base_rng, "T_", kRows);

  struct Statement {
    bool update = false;
    int64_t id = 0;
    TimePoint tc = 0;
    std::string replacement;
    size_t changed = 0;  // rows the served statement changed
  };
  constexpr size_t kCatalogs = 2;
  Catalog catalogs[kCatalogs];
  std::vector<Statement> statements[kCatalogs];
  for (size_t c = 0; c < kCatalogs; ++c) {
    ASSERT_TRUE(catalogs[c].RegisterTable("T", base).ok());
    Rng rng(seed * 3000 + c);
    for (int i = 0; i < kStatementsPerCatalog; ++i) {
      Statement st;
      st.update = rng.Bernoulli(0.5);
      st.id = rng.Uniform(0, static_cast<int64_t>(kRows) + 10);
      st.tc = rng.Uniform(0, 100);
      st.replacement = StringPool()[static_cast<size_t>(rng.Uniform(0, 3))];
      statements[c].push_back(std::move(st));
    }
  }

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kCatalogs; ++c) {
    threads.emplace_back([&, c] {
      SessionManager manager(&catalogs[c]);
      auto session = manager.CreateSession();
      for (Statement& st : statements[c]) {
        const std::string where = " WHERE T_ID = " + std::to_string(st.id) +
                                  " AT DATE '" + FormatTimePoint(st.tc) + "'";
        auto result = session->Execute(
            st.update ? "UPDATE T SET T_S = '" + st.replacement + "'" + where
                      : "DELETE FROM T" + where);
        ASSERT_TRUE(result.ok()) << result.status();
        st.changed = result->result.affected;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t c = 0; c < kCatalogs; ++c) {
    SCOPED_TRACE("catalog " + std::to_string(c));
    EXPECT_TRUE(
        std::any_of(statements[c].begin(), statements[c].end(),
                    [](const Statement& st) { return st.changed > 0; }));
    OngoingRelation replay = base;
    for (const Statement& st : statements[c]) {
      auto by_id = [id = st.id](const Tuple& t) {
        return t.value(0).AsInt64() == id;
      };
      Result<size_t> changed =
          st.update ? TemporalUpdate(&replay, kVtIndex, st.tc, by_id,
                                     ReplaceS(st.replacement))
                    : TemporalDelete(&replay, kVtIndex, st.tc, by_id);
      ASSERT_TRUE(changed.ok()) << changed.status();
      EXPECT_EQ(*changed, st.changed);
    }
    auto served = catalogs[c].PinSnapshot().Get("T");
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(Fingerprint(**served), Fingerprint(replay));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentServingTest,
                         ::testing::ValuesIn(FuzzSeeds(4)));

}  // namespace
}  // namespace server
}  // namespace ongoingdb
