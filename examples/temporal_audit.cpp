// Temporal audit: set operations over ongoing relations plus their
// storage footprint.
//
// A compliance team keeps two registers of active policies, one per
// source system. They need (a) policies present in either register
// (union), (b) policies in the primary register that the replica is
// *missing at some reference times* (difference with per-reference-time
// semantics, Theorem 2), and (c) what the primary register costs to
// store in the paper's tuple format (Table V).
//
// Build & run:  ./build/examples/temporal_audit
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "relation/algebra.h"
#include "storage/stats.h"

using namespace ongoingdb;

namespace {

// Demo data is known-good; if a statement ever fails, surface it loudly
// instead of discarding the [[nodiscard]] Status (see util/status.h).
void Require(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
void Require(const Result<T>& result) {
  Require(result.status());
}

Schema PolicySchema() {
  return Schema({{"Policy", ValueType::kString},
                 {"Holder", ValueType::kString},
                 {"VT", ValueType::kOngoingInterval}});
}

void Show(const char* title, const OngoingRelation& r) {
  std::printf("%s\n%s\n", title, r.ToString().c_str());
}

}  // namespace

int main() {
  // Primary register: all policies, inserted as base tuples.
  OngoingRelation primary(PolicySchema());
  Require(primary.Insert({Value::String("P-100"), Value::String("Ada"),
                        Value::Ongoing(OngoingInterval::SinceUntilNow(
                            MD(2, 1)))}));
  Require(primary.Insert({Value::String("P-200"), Value::String("Grace"),
                        Value::Ongoing(OngoingInterval::Fixed(MD(3, 1),
                                                              MD(9, 1)))}));
  Require(primary.Insert({Value::String("P-300"), Value::String("Edsger"),
                        Value::Ongoing(OngoingInterval::SinceUntilNow(
                            MD(6, 15)))}));

  // Replica register: P-200 arrives identically; P-100 was only synced
  // from 04/01 on (restricted reference time); P-300 never arrived.
  OngoingRelation replica(PolicySchema());
  Require(replica.Insert({Value::String("P-200"), Value::String("Grace"),
                        Value::Ongoing(OngoingInterval::Fixed(MD(3, 1),
                                                              MD(9, 1)))}));
  Require(replica.InsertWithRt(
      {Value::String("P-100"), Value::String("Ada"),
       Value::Ongoing(OngoingInterval::SinceUntilNow(MD(2, 1)))},
      IntervalSet{{MD(4, 1), kMaxInfinity}}));

  Show("=== Primary register ===", primary);
  Show("=== Replica register ===", replica);

  // (a) Union merges the registers; structurally equal tuples merge
  // their reference times.
  auto all = Union(primary, replica);
  if (!all.ok()) {
    std::cerr << all.status() << "\n";
    return 1;
  }
  Show("=== Union (every policy known anywhere) ===", *all);

  // (b) Difference: which policies does the replica miss, and *when*?
  auto missing = Difference(primary, replica);
  if (!missing.ok()) {
    std::cerr << missing.status() << "\n";
    return 1;
  }
  Show("=== Primary - Replica (policies missing from the replica, with "
       "the reference times at which they are missing) ===",
       *missing);
  std::printf("Reading the RT column: P-100 is missing only at reference "
              "times before 04/01\n(the sync date); P-300 is missing at "
              "all reference times.\n\n");

  // (c) The primary register's size in the paper's tuple format.
  StorageStats stats = ComputeStorageStats(primary);
  std::printf("=== Storage ===\n%zu tuples, %zu B serialized.\nAvg tuple: "
              "%.1f B, of which RT array: %.1f B (%.0f%%).\n",
              stats.tuple_count, stats.total_bytes, stats.AvgTupleBytes(),
              stats.AvgRtBytes(), 100.0 * stats.RtShare());
  return 0;
}
