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

/// A conjunctive predicate compiled against stored input tuples: the two
/// of a join's candidate pair, or the one of a scan, a filter, a view
/// delta or a DML WHERE. An operator tests the stored tuples before it
/// copies them. Construction classifies the top-level conjuncts once: an
/// Allen, CONTAINS or comparison conjunct whose operands are each a
/// literal or a column becomes an atom, its columns resolved to (input
/// side, ordinal) by ordinal against the left input's arity. Under
/// ongoing semantics the conjuncts follow the Sec. VIII split (Split()):
/// a fixed-only conjunct is a boolean test, an ongoing one restricts the
/// reference time by its St. Under Clifford semantics every conjunct is
/// a boolean test at rt. Every other conjunct (disjunctions, negations,
/// DURATION, nested scalars) stays in remainder(), which the caller
/// evaluates on the tuple it builds from surviving inputs.
///
/// An atom that tests as a boolean decides inline through the *Fixed
/// forms' type dispatch (TryCompareFixed, TryAllenFixed,
/// TryContainsFixed in expr/expr.h), which switches on the operands'
/// runtime type tags and cannot fail: same-type INT64, DOUBLE, STRING,
/// BOOL or TIMEPOINT comparisons, = or != on fixed intervals, fixed
/// Allen, and a fixed interval CONTAINS a time point. Any other operands
/// (mixed types, intervals under <, ongoing columns under Clifford
/// semantics, which it instantiates at rt first) take the generic arm,
/// the *Fixed form itself, the only path that can fail. Both share the
/// one dispatch, so results and errors equal the scalar path's. Ongoing
/// atoms evaluate through the Expr nodes' value-level dispatch and
/// allocate nothing on interval operands (core/operations.h).
///
/// The one-input form also has a chunk test, RulesOut, which proves from
/// a full chunk's synopsis (relation/tuple_store.h) that no stored tuple
/// of the chunk passes the fixed atoms and that none fails them, so that
/// a DML WHERE (sql::MakeModificationFilter) can pass over the chunk.
class PairPredicate {
 public:
  /// Compiles `conjunction` (null = true) against `joined`, the
  /// concatenation of a `left_arity`-attribute left input and the right
  /// input. With `at_reference_time` (Clifford semantics at `rt`)
  /// literals are instantiated at rt, as LiteralExpr::EvalScalarFixed
  /// does, and so are the values of columns `joined` types as ongoing:
  /// a scan tests its stored, uninstantiated tuples.
  PairPredicate(const ExprPtr& conjunction, const Schema& joined,
                size_t left_arity, bool at_reference_time, TimePoint rt);

  /// Compiles `conjunction` against one input of schema `schema`.
  PairPredicate(const ExprPtr& conjunction, const Schema& schema,
                bool at_reference_time, TimePoint rt)
      : PairPredicate(conjunction, schema, schema.num_attributes(),
                      at_reference_time, rt) {}

  /// Ongoing semantics: unless *rt is empty, tests the fixed atoms on
  /// (l, r) in order, then intersects *rt with each ongoing atom's St,
  /// stopping once it is empty; a failed fixed atom empties *rt.
  /// `scratch` is a reusable buffer that must not alias *rt.
  [[gnu::always_inline]] Status Restrict(const Tuple& l, const Tuple& r,
                                         IntervalSet* rt,
                                         IntervalSet* scratch) const {
    return RestrictFrom(l, r, *rt, rt, scratch);
  }

  /// The one-input form: *rt becomes t's RT restricted as above. The
  /// fixed atoms test the stored tuple before its RT is copied, so a
  /// tuple they reject costs no copy.
  [[gnu::always_inline]] Status Restrict(const Tuple& t, IntervalSet* rt,
                                         IntervalSet* scratch) const {
    return RestrictFrom(t, t, t.rt(), rt, scratch);
  }

  /// Clifford semantics: true iff every atom holds on (l, r).
  [[gnu::always_inline]] Result<bool> Holds(const Tuple& l,
                                            const Tuple& r) const {
    bool holds;
    ONGOINGDB_RETURN_NOT_OK(TestAtoms(atoms_.size(), l, r, &holds));
    return holds;
  }
  [[gnu::always_inline]] Result<bool> Holds(const Tuple& t) const {
    return Holds(t, t);
  }

  /// The remainder on `t`, a tuple of `schema` built from the surviving
  /// inputs. Ongoing semantics: fixed conjuncts test, ongoing ones
  /// intersect *rt (a failed test empties it); `scratch` must not alias
  /// *rt. Clifford semantics: RemainderHolds, at rt.
  Status RestrictRemainder(const Schema& schema, const Tuple& t,
                           IntervalSet* rt, IntervalSet* scratch) const;
  Result<bool> RemainderHolds(const Schema& schema, const Tuple& t) const;

  /// The one-input form's chunk test: true when `synopsis` proves that
  /// every tuple of its chunk fails a fixed atom, and that testing the
  /// atoms in order raises no error on any of them. It reads the leading
  /// run of fixed atoms that compare an INT64 column with an INT64
  /// literal, in either orientation, by =, !=, <, <=, > or >=: on a
  /// chunk whose synopsis holds the column's range, such an atom cannot
  /// fail, and the chunk is ruled out when no value in the range
  /// satisfies it. The first atom of any other kind ends the run, since
  /// it could fail on a tuple that a later atom rejects, and so does a
  /// column the synopsis holds no range for. False when nothing is
  /// proven; the tuples must then be tested one by one.
  bool RulesOut(const ChunkSynopsis& synopsis) const;

  /// The conjuncts left for evaluation on the built tuple (null = true).
  const ExprPtr& remainder() const { return remainder_; }

  /// How many atoms test as booleans (all of them under Clifford
  /// semantics) and how many restrict the RT.
  size_t fixed_atoms() const { return num_fixed_; }
  size_t ongoing_atoms() const { return atoms_.size() - num_fixed_; }

 private:
  struct Operand {
    enum class Source : uint8_t { kLeft, kRight, kLiteral };
    Source source = Source::kLiteral;
    size_t ordinal = 0;
    bool instantiate = false;  // an ongoing column read under Clifford
    Value literal;
  };
  struct Atom {
    ExprKind kind = ExprKind::kCompare;  // kCompare, kAllen or kContains
    CompareOp compare = CompareOp::kEq;
    AllenOp allen = AllenOp::kOverlaps;
    Operand lhs, rhs;
  };
  // A kCompare atom on an INT64 column and an INT64 literal, oriented as
  // `column op literal`.
  struct RangeAtom {
    size_t ordinal = 0;
    CompareOp op = CompareOp::kEq;
    int64_t literal = 0;
  };

  static const Value& Get(const Operand& o, const Tuple& l, const Tuple& r) {
    return o.source == Operand::Source::kLeft    ? l.value(o.ordinal)
           : o.source == Operand::Source::kRight ? r.value(o.ordinal)
                                                 : o.literal;
  }

  // The atom on (a, b) through the type dispatch; false, leaving *holds
  // alone, where the generic arm must decide.
  [[gnu::always_inline]] static bool TryTest(const Atom& atom,
                                             const Value& a, const Value& b,
                                             bool* holds) {
    switch (atom.kind) {
      case ExprKind::kAllen: return TryAllenFixed(atom.allen, a, b, holds);
      case ExprKind::kContains: return TryContainsFixed(a, b, holds);
      default: return TryCompareFixed(atom.compare, a, b, holds);
    }
  }

  // The generic arm: the *Fixed form on (a, b), instantiated at rt where
  // an operand is an ongoing column read under Clifford semantics.
  Status TestGeneric(const Atom& atom, const Value& a, const Value& b,
                     bool* holds) const;

  // Tests atoms_[0, n) on (l, r) in order; *holds turns false at the
  // first that fails. The fixed-atom loop of Restrict and Holds. It and
  // the functions that reach it are forced inline: they run once per
  // scanned tuple, candidate pair or DML row, and GCC's size limits
  // otherwise leave them calls (measured with BM_PointSelectDrain and
  // BM_ModificationFilterScan, DESIGN.md "Predicate evaluation").
  [[gnu::always_inline]] Status TestAtoms(size_t n, const Tuple& l,
                                          const Tuple& r,
                                          bool* holds) const {
    *holds = true;
    for (size_t i = 0; i < n; ++i) {
      const Atom& atom = atoms_[i];
      const Value& a = Get(atom.lhs, l, r);
      const Value& b = Get(atom.rhs, l, r);
      if (!TryTest(atom, a, b, holds)) {
        ONGOINGDB_RETURN_NOT_OK(TestGeneric(atom, a, b, holds));
      }
      if (!*holds) break;
    }
    return Status::OK();
  }

  // Both Restrict forms: *rt becomes `in`, which may be *rt itself,
  // restricted on (l, r). Unless `in` is empty the fixed atoms test
  // first; one that fails empties *rt in place, and only once they hold
  // do the ongoing atoms run (RestrictOngoing).
  [[gnu::always_inline]] Status RestrictFrom(const Tuple& l, const Tuple& r,
                                             const IntervalSet& in,
                                             IntervalSet* rt,
                                             IntervalSet* scratch) const {
    if (num_fixed_ != 0 && !in.IsEmpty()) {
      bool holds;
      ONGOINGDB_RETURN_NOT_OK(TestAtoms(num_fixed_, l, r, &holds));
      if (!holds) {
        rt->Clear();
        return Status::OK();
      }
    }
    return RestrictOngoing(l, r, in, rt, scratch);
  }

  // *rt takes `in`, then each ongoing atom's St on (l, r).
  Status RestrictOngoing(const Tuple& l, const Tuple& r, const IntervalSet& in,
                         IntervalSet* rt, IntervalSet* scratch) const;

  // Fixed atoms first: atoms_[0, num_fixed_) test as booleans.
  std::vector<Atom> atoms_;
  size_t num_fixed_ = 0;
  // RulesOut's run: the leading fixed atoms that compare an INT64 column
  // of the (left) input with an INT64 literal.
  std::vector<RangeAtom> range_atoms_;
  ExprPtr remainder_;
  // The remainder's halves; under Clifford semantics all of it is
  // fixed_rest_.
  ExprPtr fixed_rest_, ongoing_rest_;
  TimePoint rt_;
};

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
