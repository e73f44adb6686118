// The shared randomized plan-generator equivalence harness. The fuzz
// suites (batched_executor_test, index_join_test, kernel_equivalence_test
// and others) pit the batched/parallel execution pipeline against a
// reference evaluator built from the independently tested algebra
// primitives; this header holds the pieces they all need so the harness
// cannot drift apart per suite:
//
//  * a reference evaluator that materializes every node with nested
//    loops and unsplit predicates (a deliberately different code path
//    from the batched operators);
//  * order-normalized result comparison (tuple multisets incl. RT —
//    parallel pipelines emit in unspecified order);
//  * randomized base relations and plan generation with globally unique
//    attribute names (predicates stay resolvable at any plan depth);
//  * the batch-boundary drain helper (results of exactly 0, 1,
//    capacity, capacity + 1 tuples; no empty batch mid-stream);
//  * forced-parallel options for the workers 1/2/4 sweeps;
//  * seed management: FuzzSeeds() honors the ONGOINGDB_TEST_SEED env
//    override and ONGOINGDB_FUZZ_SEED_TRACE prints the failing seed, so
//    any CI failure replays locally in one command:
//
//      ONGOINGDB_TEST_SEED=<seed> ./<suite> --gtest_filter=<test>
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "relation/algebra.h"
#include "util/rng.h"

namespace ongoingdb {
namespace plan_fuzz {

// --- seed management --------------------------------------------------------

/// The seeds a fuzz suite instantiates with: [0, count), or the single
/// overriding seed from ONGOINGDB_TEST_SEED when set — the replay knob
/// for failures seen elsewhere (CI, another machine).
inline std::vector<uint64_t> FuzzSeeds(uint64_t count) {
  if (const char* env = std::getenv("ONGOINGDB_TEST_SEED");
      env != nullptr && *env != '\0') {
    return {std::strtoull(env, nullptr, 10)};
  }
  std::vector<uint64_t> seeds(static_cast<size_t>(count));
  std::iota(seeds.begin(), seeds.end(), uint64_t{0});
  return seeds;
}

// Emits the failing seed (and the replay command) with every assertion
// in scope. First line of every TEST_P body in a fuzz suite.
#define ONGOINGDB_FUZZ_SEED_TRACE(seed)                                    \
  SCOPED_TRACE(::testing::Message()                                        \
               << "fuzz seed " << (seed)                                   \
               << " (replay: ONGOINGDB_TEST_SEED=" << (seed) << ")")

// --- order-normalized comparison --------------------------------------------

/// Tuple multiset incl. RT: interval sets are normalized, so equal sets
/// render identically; multisets compare order-insensitively (parallel
/// pipelines emit in unspecified order).
inline std::multiset<std::string> Fingerprint(const OngoingRelation& r) {
  std::multiset<std::string> rows;
  for (const Tuple& t : r.tuples()) rows.insert(t.ToString());
  return rows;
}

// --- reference evaluator ----------------------------------------------------
// Materializes every node with the algebra's nested-loop primitives and
// evaluates predicates unsplit — a deliberately different code path from
// the batched operators (no split, no keys, no batches, no index).

inline std::vector<Value> ConcatValues(const Tuple& r, const Tuple& s) {
  std::vector<Value> values;
  values.reserve(r.num_values() + s.num_values());
  for (const Value& v : r.values()) values.push_back(v);
  for (const Value& v : s.values()) values.push_back(v);
  return values;
}

inline Result<OngoingRelation> ReferenceExecute(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return static_cast<const ScanNode*>(plan.get())->relation();
    case PlanKind::kFilter: {
      const auto* node = static_cast<const FilterNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation in,
                                 ReferenceExecute(node->child()));
      OngoingRelation out(in.schema());
      for (const Tuple& t : in.tuples()) {
        ONGOINGDB_ASSIGN_OR_RETURN(
            OngoingBoolean b, node->predicate()->EvalPredicate(in.schema(), t));
        IntervalSet rt = t.rt().Intersect(b.st());
        if (!rt.IsEmpty()) out.AppendUnchecked(Tuple(t.values(), std::move(rt)));
      }
      return out;
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation in,
                                 ReferenceExecute(node->child()));
      return Project(in, node->names());
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation left,
                                 ReferenceExecute(node->left()));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation right,
                                 ReferenceExecute(node->right()));
      Schema joined = left.schema().Concat(right.schema(), node->left_prefix(),
                                           node->right_prefix());
      OngoingRelation out(joined);
      for (const Tuple& lt : left.tuples()) {
        for (const Tuple& st : right.tuples()) {
          Tuple c(ConcatValues(lt, st), lt.rt().Intersect(st.rt()));
          if (c.rt().IsEmpty()) continue;
          ONGOINGDB_ASSIGN_OR_RETURN(
              OngoingBoolean b, node->predicate()->EvalPredicate(joined, c));
          IntervalSet rt = c.rt().Intersect(b.st());
          if (rt.IsEmpty()) continue;
          out.AppendUnchecked(Tuple(c.values(), std::move(rt)));
        }
      }
      return out;
    }
  }
  return Status::Internal("unknown plan kind");
}

inline Result<OngoingRelation> ReferenceExecuteAt(const PlanPtr& plan,
                                                  TimePoint rt) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return InstantiateRelation(
          static_cast<const ScanNode*>(plan.get())->relation(), rt);
    case PlanKind::kFilter: {
      const auto* node = static_cast<const FilterNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation in,
                                 ReferenceExecuteAt(node->child(), rt));
      OngoingRelation out(in.schema());
      for (const Tuple& t : in.tuples()) {
        ONGOINGDB_ASSIGN_OR_RETURN(
            bool keep, node->predicate()->EvalPredicateFixed(in.schema(), t, rt));
        if (keep) out.AppendUnchecked(t);
      }
      return out;
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation in,
                                 ReferenceExecuteAt(node->child(), rt));
      return Project(in, node->names());
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation left,
                                 ReferenceExecuteAt(node->left(), rt));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation right,
                                 ReferenceExecuteAt(node->right(), rt));
      Schema joined = left.schema().Concat(right.schema(), node->left_prefix(),
                                           node->right_prefix());
      OngoingRelation out(joined);
      for (const Tuple& lt : left.tuples()) {
        for (const Tuple& st : right.tuples()) {
          Tuple c(ConcatValues(lt, st));
          ONGOINGDB_ASSIGN_OR_RETURN(
              bool keep, node->predicate()->EvalPredicateFixed(joined, c, rt));
          if (keep) out.AppendUnchecked(std::move(c));
        }
      }
      return out;
    }
  }
  return Status::Internal("unknown plan kind");
}

// --- randomized base relations ----------------------------------------------
// Base relations carry globally unique attribute names (per-relation
// prefix), so concatenated schemas never qualify and generated
// predicates stay resolvable at any plan depth.

inline const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> pool = {
      "component-spam-filter", "component-crash-reporter",
      "component-preferences", "component-bookmarks"};
  return pool;
}

inline OngoingRelation MakeBase(Rng& rng, const std::string& prefix,
                                size_t n) {
  OngoingRelation r(Schema({{prefix + "ID", ValueType::kInt64},
                            {prefix + "K", ValueType::kInt64},
                            {prefix + "S", ValueType::kString},
                            {prefix + "VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < n; ++i) {
    OngoingInterval vt;
    if (rng.Bernoulli(0.3)) {
      vt = OngoingInterval::SinceUntilNow(rng.Uniform(0, 100));
    } else if (rng.Bernoulli(0.2)) {
      vt = OngoingInterval::FromNowUntil(rng.Uniform(0, 100));
    } else {
      TimePoint s = rng.Uniform(0, 100);
      vt = OngoingInterval::Fixed(s, s + rng.Uniform(1, 40));
    }
    EXPECT_TRUE(
        r.Insert({Value::Int64(static_cast<int64_t>(i)),
                  Value::Int64(rng.Uniform(0, 4)),
                  Value::String(StringPool()[static_cast<size_t>(
                      rng.Uniform(0, 3))]),
                  Value::Ongoing(vt)})
            .ok());
  }
  // Neither the model nor SQL has NULL: a row with a NULL in any column
  // is rejected where it enters, so no lowering ever meets one. (Draws
  // nothing from rng, so every seed still generates the same rows.)
  for (size_t column = 0; column < r.schema().num_attributes(); ++column) {
    std::vector<Value> row = {Value::Int64(static_cast<int64_t>(n)),
                              Value::Int64(0), Value::String(StringPool()[0]),
                              Value::Ongoing(OngoingInterval::Fixed(0, 1))};
    row[column] = Value::Null();
    EXPECT_EQ(r.Insert(std::move(row)).code(), StatusCode::kTypeError);
  }
  EXPECT_EQ(r.size(), n);
  return r;
}

inline OngoingInterval RandomOngoingInterval(Rng& rng) {
  switch (rng.Uniform(0, 3)) {
    case 0:
      return OngoingInterval::SinceUntilNow(rng.Uniform(0, 100));
    case 1:
      return OngoingInterval::FromNowUntil(rng.Uniform(0, 100));
    case 2: {
      TimePoint a1 = rng.Uniform(0, 80);
      TimePoint a2 = rng.Uniform(0, 80);
      return OngoingInterval(OngoingTimePoint(a1, a1 + rng.Uniform(0, 40)),
                             OngoingTimePoint(a2, a2 + rng.Uniform(0, 40)));
    }
    default: {
      TimePoint s = rng.Uniform(0, 100);
      return OngoingInterval::Fixed(s, s + rng.Uniform(1, 40));
    }
  }
}

/// A relation with one ongoing and one fixed interval column (prefixed
/// like MakeBase's), so probes and join conjuncts can target either
/// representation — and the bitemporal-style mix keeps the
/// column-resolution regression covered end to end.
inline OngoingRelation MakeMixedRelation(uint64_t seed,
                                         const std::string& prefix,
                                         size_t n) {
  Rng rng(seed);
  OngoingRelation r(Schema({{prefix + "ID", ValueType::kInt64},
                            {prefix + "VT", ValueType::kOngoingInterval},
                            {prefix + "FT", ValueType::kFixedInterval}}));
  for (size_t i = 0; i < n; ++i) {
    TimePoint fs = rng.Uniform(0, 100);
    EXPECT_TRUE(
        r.Insert({Value::Int64(static_cast<int64_t>(i)),
                  Value::Ongoing(RandomOngoingInterval(rng)),
                  Value::Interval(FixedInterval{fs, fs + rng.Uniform(1, 40)})})
            .ok());
  }
  return r;
}

// --- randomized plan generation ---------------------------------------------

inline std::vector<std::string> NamesOfType(const Schema& schema,
                                            ValueType type) {
  std::vector<std::string> names;
  for (const Attribute& a : schema.attributes()) {
    if (a.type == type) names.push_back(a.name);
  }
  return names;
}

template <typename T>
const T& PickOne(Rng& rng, const std::vector<T>& pool) {
  return pool[static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
}

inline ExprPtr RandomFilterPredicate(Rng& rng, const Schema& schema) {
  std::vector<ExprPtr> conjuncts;
  auto ints = NamesOfType(schema, ValueType::kInt64);
  auto strs = NamesOfType(schema, ValueType::kString);
  auto vts = NamesOfType(schema, ValueType::kOngoingInterval);
  if (!ints.empty() && rng.Bernoulli(0.7)) {
    conjuncts.push_back(
        Lt(Col(PickOne(rng, ints)), Lit(rng.Uniform(0, 12))));
  }
  if (!strs.empty() && rng.Bernoulli(0.3)) {
    conjuncts.push_back(Eq(Col(PickOne(rng, strs)),
                           Lit(Value::String(PickOne(rng, StringPool())))));
  }
  if (!vts.empty() && rng.Bernoulli(0.6)) {
    TimePoint s = rng.Uniform(0, 90);
    conjuncts.push_back(
        OverlapsExpr(Col(PickOne(rng, vts)),
                     Lit(OngoingInterval::Fixed(s, s + rng.Uniform(5, 40)))));
  }
  if (conjuncts.empty()) {
    conjuncts.push_back(Lt(Lit(int64_t{0}), Lit(int64_t{1})));
  }
  return AndAll(conjuncts);
}

inline ExprPtr RandomJoinPredicate(Rng& rng, const Schema& left,
                                   const Schema& right) {
  std::vector<ExprPtr> conjuncts;
  auto lints = NamesOfType(left, ValueType::kInt64);
  auto rints = NamesOfType(right, ValueType::kInt64);
  auto lstrs = NamesOfType(left, ValueType::kString);
  auto rstrs = NamesOfType(right, ValueType::kString);
  auto lvts = NamesOfType(left, ValueType::kOngoingInterval);
  auto rvts = NamesOfType(right, ValueType::kOngoingInterval);
  if (!lints.empty() && !rints.empty() && rng.Bernoulli(0.8)) {
    conjuncts.push_back(
        Eq(Col(PickOne(rng, lints)), Col(PickOne(rng, rints))));
  }
  if (!lstrs.empty() && !rstrs.empty() && rng.Bernoulli(0.3)) {
    conjuncts.push_back(
        Eq(Col(PickOne(rng, lstrs)), Col(PickOne(rng, rstrs))));
  }
  if (!lvts.empty() && !rvts.empty() && rng.Bernoulli(0.6)) {
    conjuncts.push_back(
        OverlapsExpr(Col(PickOne(rng, lvts)), Col(PickOne(rng, rvts))));
  }
  if (conjuncts.empty()) {
    // Degenerate cross product (keeps the generator total when
    // projections dropped every joinable column).
    conjuncts.push_back(Lt(Lit(int64_t{0}), Lit(int64_t{1})));
  }
  return AndAll(conjuncts);
}

/// Owns the base relations a generated plan borrows.
struct PlanFixture {
  std::vector<std::unique_ptr<OngoingRelation>> relations;
  int join_counter = 0;
};

inline PlanPtr RandomPlan(Rng& rng, PlanFixture* fx, int budget) {
  if (budget <= 0 || rng.Bernoulli(0.25)) {
    auto rel = std::make_unique<OngoingRelation>(
        MakeBase(rng, "R" + std::to_string(fx->relations.size()) + "_",
                 static_cast<size_t>(rng.Uniform(5, 14))));
    fx->relations.push_back(std::move(rel));
    PlanPtr scan = Scan(fx->relations.back().get(),
                        "R" + std::to_string(fx->relations.size() - 1));
    return scan;
  }
  const double roll = rng.UniformReal();
  if (roll < 0.35) {
    PlanPtr child = RandomPlan(rng, fx, budget - 1);
    Schema schema = *OutputSchema(child);
    return Filter(std::move(child), RandomFilterPredicate(rng, schema));
  }
  if (roll < 0.55) {
    PlanPtr child = RandomPlan(rng, fx, budget - 1);
    Schema schema = *OutputSchema(child);
    // Keep a random non-empty prefix-free subset, preserving order.
    std::vector<std::string> names;
    for (const Attribute& a : schema.attributes()) {
      if (rng.Bernoulli(0.6)) names.push_back(a.name);
    }
    if (names.empty()) names.push_back(schema.attribute(0).name);
    return ProjectPlan(std::move(child), std::move(names));
  }
  PlanPtr left = RandomPlan(rng, fx, budget - 1);
  PlanPtr right = RandomPlan(rng, fx, budget - 1);
  Schema ls = *OutputSchema(left);
  Schema rs = *OutputSchema(right);
  const int id = fx->join_counter++;
  return Join(std::move(left), std::move(right),
              RandomJoinPredicate(rng, ls, rs), "L" + std::to_string(id),
              "R" + std::to_string(id));
}

/// Rebuilds the plan with every join forced to `algorithm`.
inline PlanPtr WithAlgorithm(const PlanPtr& plan, JoinAlgorithm algorithm) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return plan;
    case PlanKind::kFilter: {
      const auto* node = static_cast<const FilterNode*>(plan.get());
      return Filter(WithAlgorithm(node->child(), algorithm),
                    node->predicate());
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      return ProjectPlan(WithAlgorithm(node->child(), algorithm),
                         node->names());
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      return Join(WithAlgorithm(node->left(), algorithm),
                  WithAlgorithm(node->right(), algorithm), node->predicate(),
                  node->left_prefix(), node->right_prefix(), algorithm);
    }
  }
  return plan;
}

// --- drains and sweeps ------------------------------------------------------

/// Drains `op` with caller-chosen batch capacity; verifies the protocol
/// (no empty batch mid-stream, every tuple within capacity) and returns
/// the total tuple count. The capacity sweep 0/1/cap/cap+1 lives in the
/// calling suites — this is the shared measuring loop.
inline size_t DrainCountWithCapacity(PhysicalOperator& op, size_t capacity) {
  EXPECT_TRUE(op.Open().ok());
  TupleBatch batch(capacity);
  size_t total = 0;
  while (true) {
    EXPECT_TRUE(op.Next(&batch).ok());
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), capacity);
    total += batch.size();
  }
  op.Close();
  return total;
}

/// Parallel options that force the morsel-driven lowering on arbitrarily
/// small inputs (no serial fallback) with morsels small enough that even
/// tiny relations split across several claims — partition handoff, empty
/// partitions and suspension all get exercised. The workers 1/2/4 sweep
/// lives in the calling suites.
inline ParallelOptions ForcedParallel(size_t workers, size_t morsel_size) {
  ParallelOptions options;
  options.workers = workers;
  options.morsel_size = morsel_size;
  options.min_parallel_tuples = 0;
  return options;
}

}  // namespace plan_fuzz
}  // namespace ongoingdb
