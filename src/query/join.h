// Typed join keys and the relation-level join entry points. Both join
// algorithms produce the algebra's theta-join result
// (RT = r.RT ^ s.RT ^ theta(r, s)); they differ in how candidate pairs
// are enumerated:
//
//  * nested-loop: any predicate, O(|R| * |S|);
//  * hash: linear build/probe on fixed equality conjuncts (typed
//    ValueHash/ValueEq keys — no string formatting per tuple), residual
//    predicate evaluated per candidate pair.
//
// The algorithms themselves are implemented as batched physical
// operators (query/physical.h); the relation-in/relation-out functions
// below are thin wrappers that compile a Join(Scan, Scan) plan with the
// algorithm forced and drain it.
#pragma once

#include "expr/expr.h"
#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {

/// One fixed-attribute equality conjunct usable as a join key, resolved
/// to attribute indices of the two inputs.
struct EquiKey {
  size_t left_index;
  size_t right_index;
};

/// Splits a conjunctive join predicate into equality conjuncts on fixed
/// attributes (hash keys) and the residual predicate (nullptr when
/// everything was a key). Column names may be qualified with the join
/// prefixes ("L.K") or unqualified when unambiguous. Conjuncts that do
/// not fit the key pattern stay in the residual.
Status ExtractEquiConjuncts(const ExprPtr& predicate,
                            const Schema& left_schema,
                            const Schema& right_schema,
                            const std::string& left_prefix,
                            const std::string& right_prefix,
                            std::vector<EquiKey>* keys, ExprPtr* residual);

/// The shared preparation of the key-driven joins: extracted key column
/// indices per side, the concatenated output schema, and the residual
/// predicate. has_keys == false means the caller must fall back to
/// nested-loop (the residual then holds the full predicate).
struct EquiJoinPlan {
  std::vector<size_t> left_indices;
  std::vector<size_t> right_indices;
  Schema joined;
  ExprPtr residual;
  bool has_keys = false;
};

Result<EquiJoinPlan> PrepareEquiJoin(const Schema& left_schema,
                                     const Schema& right_schema,
                                     const ExprPtr& predicate,
                                     const std::string& left_prefix,
                                     const std::string& right_prefix);

/// The 64-bit hash of a tuple's typed join key at the given column
/// indices — the function the hash join buckets by. ValueHash over the
/// key columns; no string formatting, no per-key allocation. Exposed so
/// the adversarial collision tests can construct distinct keys with
/// equal hashes and verify that equality, not the hash, decides matches.
size_t JoinKeyHash(const Tuple& tuple, const std::vector<size_t>& indices);

/// Maps a JoinKeyHash to one of `num_partitions` partitions — the
/// routing function of the parallel partitioned joins (query/physical.h,
/// Repartition): tuples with equal keys land in the same partition, so
/// per-partition build/probe pipelines are disjoint and complete.
/// Remixes the hash before reduction so the partition id stays
/// decorrelated from the JoinHashTable's bucket index (which uses the
/// low bits): within one partition the per-partition build table still
/// spreads over all of its buckets.
size_t JoinKeyPartition(size_t hash, size_t num_partitions);

/// Key equality via ValueEq (ValueCompare == 0), not operator== (ValueEq
/// treats NaN doubles as equal to themselves; IEEE == does not). The two
/// operands may come from different sides with different index lists.
bool JoinKeysEqual(const Tuple& a, const std::vector<size_t>& a_indices,
                   const Tuple& b, const std::vector<size_t>& b_indices);

/// Nested-loop theta join (ongoing semantics).
Result<OngoingRelation> NestedLoopJoin(const OngoingRelation& left,
                                       const OngoingRelation& right,
                                       const ExprPtr& predicate,
                                       const std::string& left_prefix,
                                       const std::string& right_prefix);

/// Hash join on extracted fixed equality conjuncts; falls back to
/// nested-loop when no key exists.
Result<OngoingRelation> HashJoin(const OngoingRelation& left,
                                 const OngoingRelation& right,
                                 const ExprPtr& predicate,
                                 const std::string& left_prefix,
                                 const std::string& right_prefix);

}  // namespace ongoingdb
