// Concurrent serving benchmark: N reader sessions × M writer sessions
// over one serving catalog (server/catalog.h, server/session.h).
//
// Readers run an ongoing selection at pinned transaction-time snapshots;
// writers commit single-row inserts through the serialized commit path
// as fast as they can. Reported per (N, M) point: p50/p99 read latency
// and write throughput. Because readers pin snapshots with one atomic
// load and scan immutable versions, read latency should degrade only
// with CPU contention (cores shared with writers), not with lock
// contention — there is no reader-side lock to convoy on.
//
// The sweep runs at 2k, 20k and 200k base rows. A commit publishes a
// version that shares the table's unchanged chunks, so writes/s should
// stay roughly flat in table size. The table grows by every write, so
// each point prints its final row count: read latencies are comparable
// only between points of about equal size.
//
// Every reader reads until it has done its reads and a minimum read
// phase of 100 ms has passed, so a point's writes/s cover that phase
// rather than thread start-up: at 2k rows 30 reads take a few
// milliseconds.
//
// Set ONGOINGDB_BENCH_JSON to additionally emit machine-readable records
// (the BENCH_*.json baselines); ONGOINGDB_BENCH_SCALE scales the table
// sizes, the read counts and the minimum read phase. The 20k-row records
// keep their unsuffixed names, so baselines recorded before the size
// sweep still compare.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/catalog.h"
#include "server/session.h"
#include "util/rng.h"

using namespace ongoingdb;
using namespace ongoingdb::bench;

namespace {

OngoingRelation MakeTable(int64_t n) {
  Rng rng(7);
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (int64_t i = 0; i < n; ++i) {
    OngoingInterval vt;
    if (rng.Bernoulli(0.3)) {
      vt = OngoingInterval::SinceUntilNow(rng.Uniform(0, 300));
    } else {
      TimePoint s = rng.Uniform(0, 300);
      vt = OngoingInterval::Fixed(s, s + rng.Uniform(1, 60));
    }
    if (!r.Insert({Value::Int64(i), Value::Int64(rng.Uniform(0, 99)),
                   Value::Ongoing(vt)})
             .ok()) {
      std::fprintf(stderr, "table build failed\n");
      std::exit(1);
    }
  }
  return r;
}

double PercentileMs(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0;
  std::sort(sorted_ms->begin(), sorted_ms->end());
  const size_t idx = std::min(
      sorted_ms->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ms->size())));
  return (*sorted_ms)[idx];
}

struct SweepPoint {
  size_t readers;
  size_t writers;
};

// The shortest read phase of a sweep point at scale 1.
constexpr double kMinReadPhaseMs = 100;

}  // namespace

int main() {
  std::printf("Concurrent serving: snapshot reads under concurrent "
              "commits\n");
  std::printf("(hardware concurrency: %u)\n\n",
              std::thread::hardware_concurrency());

  const int reads_per_reader = static_cast<int>(Scaled(30));
  const std::chrono::duration<double, std::milli> min_read_phase(
      kMinReadPhaseMs * Scale());
  const char* read_statement = "SELECT * FROM T WHERE K < 5";

  BenchJsonWriter json("concurrent_serving");
  TablePrinter table;
  table.SetHeader({"rows", "readers", "writers", "reads", "read p50 [ms]",
                   "read p99 [ms]", "writes/s", "final rows"});

  struct TableSize {
    int64_t rows;
    const char* suffix;  // record-name suffix; none for the 20k baseline
  };
  for (const TableSize size : {TableSize{2000, "/rows2k"}, TableSize{20000, ""},
                               TableSize{200000, "/rows200k"}}) {
    const int64_t n = Scaled(size.rows);
    const OngoingRelation base = MakeTable(n);
    for (const SweepPoint point : {SweepPoint{1, 0}, SweepPoint{2, 1},
                                   SweepPoint{2, 2}, SweepPoint{4, 2}}) {
      // A fresh catalog per point: write volume must not accumulate
      // across sweep points.
      server::Catalog catalog;
      if (!catalog.RegisterTable("T", base).ok()) {
        std::fprintf(stderr, "RegisterTable failed\n");
        return 1;
      }
      server::SessionManager manager(&catalog);

      std::atomic<size_t> readers_running{point.readers};
      std::atomic<uint64_t> writes_committed{0};
      std::vector<std::vector<double>> latencies(point.readers);
      std::vector<std::thread> threads;
      threads.reserve(point.readers + point.writers);

      const auto start = std::chrono::steady_clock::now();
      for (size_t r = 0; r < point.readers; ++r) {
        threads.emplace_back([&, r] {
          auto session = manager.CreateSession();
          latencies[r].reserve(static_cast<size_t>(reads_per_reader));
          for (int i = 0; i < reads_per_reader ||
                          std::chrono::steady_clock::now() - start <
                              min_read_phase;
               ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            auto result = session->Execute(read_statement);
            const auto t1 = std::chrono::steady_clock::now();
            if (!result.ok()) {
              std::fprintf(stderr, "read failed: %s\n",
                           result.status().ToString().c_str());
              std::exit(1);
            }
            latencies[r].push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
          }
          readers_running.fetch_sub(1, std::memory_order_acq_rel);
        });
      }
      for (size_t w = 0; w < point.writers; ++w) {
        threads.emplace_back([&, w] {
          auto session = manager.CreateSession();
          int64_t next_id = n + static_cast<int64_t>(w) * 1000000;
          // Write until the readers are done, so every read of this
          // sweep point runs under write pressure.
          while (readers_running.load(std::memory_order_acquire) > 0) {
            auto result = session->Execute(
                "INSERT INTO T VALUES (" + std::to_string(next_id++) +
                ", 3, PERIOD ['01/01', NOW))");
            if (!result.ok()) {
              std::fprintf(stderr, "write failed: %s\n",
                           result.status().ToString().c_str());
              std::exit(1);
            }
            writes_committed.fetch_add(1, std::memory_order_acq_rel);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

      std::vector<double> all_ms;
      for (const auto& per_reader : latencies) {
        all_ms.insert(all_ms.end(), per_reader.begin(), per_reader.end());
      }
      const double p50 = PercentileMs(&all_ms, 0.50);
      const double p99 = PercentileMs(&all_ms, 0.99);
      const uint64_t writes = writes_committed.load();
      const double writes_per_sec =
          elapsed_s > 0 ? static_cast<double>(writes) / elapsed_s : 0;
      auto final_rows = catalog.MasterVersionCount("T");

      const std::string label = "r" + std::to_string(point.readers) + "w" +
                                std::to_string(point.writers) + size.suffix;
      table.AddRow({std::to_string(n), std::to_string(point.readers),
                    std::to_string(point.writers),
                    std::to_string(all_ms.size()), FormatDouble(p50, 3),
                    FormatDouble(p99, 3), FormatDouble(writes_per_sec, 0),
                    final_rows.ok() ? std::to_string(*final_rows) : "?"});
      json.AddMs("read_p50/" + label, p50);
      json.AddMs("read_p99/" + label, p99);
      if (writes > 0) {
        json.AddMs("write/" + label,
                   elapsed_s * 1e3 / static_cast<double>(writes));
      }
    }
  }
  table.Print();
  std::printf("\n(readers pin a snapshot with one pointer copy and never "
              "wait for a commit's work; writers serialize on the commit "
              "lock — read latency varies with CPU contention and table "
              "size, not writer count)\n");
  json.WriteFromEnv();
  return 0;
}
