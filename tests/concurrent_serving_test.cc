// Randomized concurrent serving equivalence: N reader sessions × M
// writer sessions hammer one serving catalog (server/catalog.h) at once;
// every reader pins transaction-time snapshots and runs SELECTs while
// writers commit inserts, temporal deletes, and temporal updates.
//
// The oracle: every write is logged with the commit sequence the catalog
// assigned it. After the threads join, each recorded read (pinned
// sequence S, result fingerprint) is checked against a serial replay —
// the committed prefix with sequence <= S applied in sequence order to a
// plain relation with the PLAIN Torp modifications, then the same SELECT
// executed over that reconstruction. Equality means snapshot isolation
// held: the reader saw exactly the serial state at its pinned sequence,
// never a half-applied commit, never a torn mix of sequences — and each
// published version is the plain modification applied to its
// predecessor, end to end.
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
// sequence <= `seq` applied in sequence order, then `statement` run over
// it through the embedded (single-threaded) SQL path.
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
      case LoggedWrite::kDelete:
        EXPECT_TRUE(
            TemporalDelete(&state, kVtIndex, w.tc, KeyFilter(w.key)).ok());
        break;
      case LoggedWrite::kUpdate:
        EXPECT_TRUE(TemporalUpdate(&state, kVtIndex, w.tc, KeyFilter(w.key),
                                   ReplaceS(w.replacement))
                        .ok());
        break;
    }
  }
  sql::Catalog reference;
  reference.Register("T", std::move(state));
  auto result = sql::RunQuery(kStatements[statement], reference);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  return Fingerprint(*result);
}

class ConcurrentServingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrentServingTest, ReadersSeeExactSerialStatesAtTheirSnapshots) {
  const uint64_t seed = GetParam();
  ONGOINGDB_FUZZ_SEED_TRACE(seed);

  Rng base_rng(seed);
  const OngoingRelation base = MakeBase(base_rng, "T_", 12);
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
            return catalog.TemporalDeleteWhere("T", entry.tc,
                                               KeyFilter(entry.key));
          }
          entry.kind = LoggedWrite::kUpdate;
          entry.key = rng.Uniform(0, 4);
          entry.tc = rng.Uniform(0, 100);
          entry.replacement =
              StringPool()[static_cast<size_t>(rng.Uniform(0, 3))];
          return catalog.TemporalUpdateWhere("T", entry.tc,
                                             KeyFilter(entry.key),
                                             ReplaceS(entry.replacement));
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

  // Commit sequences are unique and gapless: every commit published
  // exactly once, failed commits (there are none here) consume nothing.
  ASSERT_EQ(write_log.size(), kWriters * kWritesPerWriter);
  std::sort(write_log.begin(), write_log.end(),
            [](const LoggedWrite& a, const LoggedWrite& b) {
              return a.seq < b.seq;
            });
  for (size_t i = 0; i < write_log.size(); ++i) {
    EXPECT_EQ(write_log[i].seq, base_seq + 1 + i);
  }
  EXPECT_EQ(catalog.commit_seq(), base_seq + write_log.size());

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

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentServingTest,
                         ::testing::ValuesIn(FuzzSeeds(4)));

}  // namespace
}  // namespace server
}  // namespace ongoingdb
