#include "query/join.h"

#include <optional>

#include "query/physical.h"

namespace ongoingdb {

namespace {

// The operator that holds on (b, a) where `op` holds on (a, b).
CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGe: return CompareOp::kLe;
    case CompareOp::kGt: return CompareOp::kLt;
    default: return op;  // = and != are symmetric
  }
}

// Whether some v in [range.min, range.max] satisfies `v op literal`.
bool SomeValueSatisfies(const ChunkSynopsis::Int64Range& range, CompareOp op,
                        int64_t literal) {
  switch (op) {
    case CompareOp::kLt: return range.min < literal;
    case CompareOp::kLe: return range.min <= literal;
    case CompareOp::kEq: return range.min <= literal && literal <= range.max;
    case CompareOp::kNe: return range.min != literal || range.max != literal;
    case CompareOp::kGe: return range.max >= literal;
    case CompareOp::kGt: return range.max > literal;
  }
  return true;
}

// Resolves a (possibly prefix-qualified) column name against one join
// side: "K" matches attribute K directly; "L.K" matches attribute K of
// the side with prefix "L".
std::optional<size_t> ResolveSide(const Schema& schema,
                                  const std::string& prefix,
                                  const std::string& name) {
  if (auto idx = schema.IndexOf(name); idx.ok()) return *idx;
  const std::string qualifier = prefix + ".";
  if (name.size() > qualifier.size() &&
      name.compare(0, qualifier.size(), qualifier) == 0) {
    if (auto idx = schema.IndexOf(name.substr(qualifier.size())); idx.ok()) {
      return *idx;
    }
  }
  return std::nullopt;
}

}  // namespace

Status ExtractEquiConjuncts(const ExprPtr& predicate,
                            const Schema& left_schema,
                            const Schema& right_schema,
                            const std::string& left_prefix,
                            const std::string& right_prefix,
                            std::vector<EquiKey>* keys, ExprPtr* residual) {
  std::vector<ExprPtr> conjuncts;
  CollectTopLevelConjuncts(predicate, &conjuncts);
  std::vector<ExprPtr> residual_conjuncts;
  auto fixed_at = [](const Schema& schema, size_t idx) {
    return !IsOngoingType(schema.attribute(idx).type);
  };
  for (const ExprPtr& conjunct : conjuncts) {
    auto cmp = AsCompare(conjunct);
    bool is_key = false;
    if (cmp && cmp->op == CompareOp::kEq) {
      auto lcol = AsColumnName(cmp->lhs);
      auto rcol = AsColumnName(cmp->rhs);
      if (lcol && rcol) {
        // A usable key binds one operand to exactly one side (fixed
        // attribute) and the other operand to the other side.
        auto classify = [&](const std::string& name)
            -> std::pair<std::optional<size_t>, std::optional<size_t>> {
          return {ResolveSide(left_schema, left_prefix, name),
                  ResolveSide(right_schema, right_prefix, name)};
        };
        auto [l_of_l, r_of_l] = classify(*lcol);
        auto [l_of_r, r_of_r] = classify(*rcol);
        if (l_of_l && !r_of_l && r_of_r && !l_of_r &&
            fixed_at(left_schema, *l_of_l) &&
            fixed_at(right_schema, *r_of_r)) {
          keys->push_back(EquiKey{*l_of_l, *r_of_r});
          is_key = true;
        } else if (l_of_r && !r_of_r && r_of_l && !l_of_l &&
                   fixed_at(left_schema, *l_of_r) &&
                   fixed_at(right_schema, *r_of_l)) {
          keys->push_back(EquiKey{*l_of_r, *r_of_l});
          is_key = true;
        }
      }
    }
    if (!is_key) residual_conjuncts.push_back(conjunct);
  }
  *residual = AndAll(residual_conjuncts);
  return Status::OK();
}

Result<EquiJoinPlan> PrepareEquiJoin(const Schema& left_schema,
                                     const Schema& right_schema,
                                     const ExprPtr& predicate,
                                     const std::string& left_prefix,
                                     const std::string& right_prefix) {
  EquiJoinPlan plan;
  std::vector<EquiKey> keys;
  ONGOINGDB_RETURN_NOT_OK(ExtractEquiConjuncts(predicate, left_schema,
                                               right_schema, left_prefix,
                                               right_prefix, &keys,
                                               &plan.residual));
  plan.joined = left_schema.Concat(right_schema, left_prefix, right_prefix);
  plan.has_keys = !keys.empty();
  if (!plan.has_keys) {
    // Nested-loop fallback: the whole predicate is the residual.
    plan.residual = predicate;
    return plan;
  }
  plan.left_indices.reserve(keys.size());
  plan.right_indices.reserve(keys.size());
  for (const EquiKey& key : keys) {
    plan.left_indices.push_back(key.left_index);
    plan.right_indices.push_back(key.right_index);
  }
  return plan;
}

size_t JoinKeyHash(const Tuple& tuple, const std::vector<size_t>& indices) {
  size_t h = 0xcbf29ce484222325ULL;
  for (size_t column : indices) {
    h = HashCombine(h, ValueHash{}(tuple.value(column)));
  }
  return h;
}

size_t JoinKeyPartition(size_t hash, size_t num_partitions) {
  // Fibonacci-multiply then fold the high bits down: the partition id
  // depends on a different bit mix than the hash table's `hash & mask`
  // bucket choice, so partitioning by key hash does not degrade the
  // per-partition tables' bucket distribution.
  uint64_t z = static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ULL;
  z ^= z >> 32;
  return static_cast<size_t>(z % num_partitions);
}

bool JoinKeysEqual(const Tuple& a, const std::vector<size_t>& a_indices,
                   const Tuple& b, const std::vector<size_t>& b_indices) {
  for (size_t c = 0; c < a_indices.size(); ++c) {
    if (!ValueEq{}(a.value(a_indices[c]), b.value(b_indices[c]))) {
      return false;
    }
  }
  return true;
}

PairPredicate::PairPredicate(const ExprPtr& conjunction, const Schema& joined,
                             size_t left_arity, bool at_reference_time,
                             TimePoint rt)
    : rt_(rt) {
  if (conjunction == nullptr) return;
  // An operand the atom can read without building a tuple: a column of
  // either input or a literal (instantiated at rt under Clifford
  // semantics). A name that does not resolve stays with the scalar
  // path, which reports it.
  auto operand = [&](const ExprPtr& e, Operand* out) {
    if (std::optional<std::string> name = AsColumnName(e)) {
      Result<size_t> idx = joined.IndexOf(*name);
      if (!idx.ok()) return false;
      const bool left = *idx < left_arity;
      out->source = left ? Operand::Source::kLeft : Operand::Source::kRight;
      out->ordinal = left ? *idx : *idx - left_arity;
      out->instantiate =
          at_reference_time && IsOngoingType(joined.attribute(*idx).type);
      return true;
    }
    if (std::optional<Value> literal = AsLiteralValue(e)) {
      out->source = Operand::Source::kLiteral;
      out->literal = at_reference_time ? literal->Instantiate(rt) : *literal;
      return true;
    }
    return false;
  };
  // Compiles one half of the split into atoms, returning the conjuncts
  // that stay in the remainder.
  auto compile = [&](const ExprPtr& part) {
    std::vector<ExprPtr> conjuncts, rest;
    if (part != nullptr) CollectTopLevelConjuncts(part, &conjuncts);
    for (const ExprPtr& conjunct : conjuncts) {
      Atom atom;
      atom.kind = conjunct->kind();
      ExprPtr lhs, rhs;
      if (std::optional<CompareParts> cmp = AsCompare(conjunct)) {
        atom.compare = cmp->op;
        lhs = cmp->lhs;
        rhs = cmp->rhs;
      } else if (std::optional<AllenParts> allen = AsAllen(conjunct)) {
        atom.allen = allen->op;
        lhs = allen->lhs;
        rhs = allen->rhs;
      } else if (std::optional<ContainsParts> contains =
                     AsContains(conjunct)) {
        lhs = contains->interval;
        rhs = contains->point;
      }
      if (lhs != nullptr && operand(lhs, &atom.lhs) &&
          operand(rhs, &atom.rhs)) {
        atoms_.push_back(std::move(atom));
      } else {
        rest.push_back(conjunct);
      }
    }
    return rest;
  };
  // Under Clifford semantics every conjunct is a boolean test.
  const SplitPredicate split = at_reference_time
                                   ? SplitPredicate{conjunction, nullptr}
                                   : Split(conjunction, joined);
  std::vector<ExprPtr> rest = compile(split.fixed_part);
  num_fixed_ = atoms_.size();
  // RulesOut's run. The column is INT64 by schema, so it is read as
  // stored, never instantiated.
  auto range_atom = [&](const Atom& atom) -> std::optional<RangeAtom> {
    if (atom.kind != ExprKind::kCompare) return std::nullopt;
    const bool column_first = atom.lhs.source == Operand::Source::kLeft;
    const Operand& column = column_first ? atom.lhs : atom.rhs;
    const Operand& literal = column_first ? atom.rhs : atom.lhs;
    if (column.source != Operand::Source::kLeft ||
        joined.attribute(column.ordinal).type != ValueType::kInt64 ||
        literal.source != Operand::Source::kLiteral ||
        literal.literal.type() != ValueType::kInt64) {
      return std::nullopt;
    }
    return RangeAtom{column.ordinal,
                     column_first ? atom.compare : Mirror(atom.compare),
                     literal.literal.AsInt64()};
  };
  for (size_t i = 0; i < num_fixed_; ++i) {
    std::optional<RangeAtom> range = range_atom(atoms_[i]);
    if (!range) break;
    range_atoms_.push_back(*range);
  }
  fixed_rest_ = AndAll(rest);
  std::vector<ExprPtr> ongoing_rest = compile(split.ongoing_part);
  ongoing_rest_ = AndAll(ongoing_rest);
  rest.insert(rest.end(), ongoing_rest.begin(), ongoing_rest.end());
  remainder_ = AndAll(rest);
}

namespace {

// A boolean atom's test through the *Fixed forms: the scalar path's
// result and error.
Result<bool> TestFixed(ExprKind kind, CompareOp compare, AllenOp allen,
                       const Value& a, const Value& b) {
  return kind == ExprKind::kAllen      ? EvalAllenFixed(allen, a, b)
         : kind == ExprKind::kContains ? EvalContainsFixed(a, b)
                                       : EvalCompareFixed(compare, a, b);
}

}  // namespace

Status PairPredicate::TestGeneric(const Atom& atom, const Value& a,
                                  const Value& b, bool* holds) const {
  Result<bool> r =
      atom.lhs.instantiate || atom.rhs.instantiate
          ? TestFixed(atom.kind, atom.compare, atom.allen, a.Instantiate(rt_),
                      b.Instantiate(rt_))
          : TestFixed(atom.kind, atom.compare, atom.allen, a, b);
  if (!r.ok()) return r.status();
  *holds = *r;
  return Status::OK();
}

bool PairPredicate::RulesOut(const ChunkSynopsis& synopsis) const {
  for (const RangeAtom& atom : range_atoms_) {
    const ChunkSynopsis::Int64Range* range = synopsis.Int64At(atom.ordinal);
    // Some tuple holds another type there, which the atom could fail on.
    if (range == nullptr) return false;
    if (!SomeValueSatisfies(*range, atom.op, atom.literal)) return true;
  }
  return false;
}

Status PairPredicate::RestrictOngoing(const Tuple& l, const Tuple& r,
                                      const IntervalSet& in, IntervalSet* rt,
                                      IntervalSet* scratch) const {
  if (rt != &in) *rt = in;
  for (size_t i = num_fixed_; i < atoms_.size() && !rt->IsEmpty(); ++i) {
    const Atom& atom = atoms_[i];
    const Value& a = Get(atom.lhs, l, r);
    const Value& b = Get(atom.rhs, l, r);
    Result<OngoingBoolean> st =
        atom.kind == ExprKind::kAllen      ? EvalAllen(atom.allen, a, b)
        : atom.kind == ExprKind::kContains ? EvalContains(a, b)
                                           : EvalCompare(atom.compare, a, b);
    if (!st.ok()) return st.status();
    if (st->IsAlwaysTrue()) continue;
    rt->IntersectInto(st->st(), scratch);
    *rt = *scratch;
  }
  return Status::OK();
}

Status PairPredicate::RestrictRemainder(const Schema& schema, const Tuple& t,
                                        IntervalSet* rt,
                                        IntervalSet* scratch) const {
  if (fixed_rest_ != nullptr) {
    ONGOINGDB_ASSIGN_OR_RETURN(bool keep,
                               fixed_rest_->EvalPredicateFixed(schema, t));
    if (!keep) {
      rt->Clear();
      return Status::OK();
    }
  }
  if (ongoing_rest_ != nullptr) {
    ONGOINGDB_ASSIGN_OR_RETURN(OngoingBoolean st,
                               ongoing_rest_->EvalPredicate(schema, t));
    rt->IntersectInto(st.st(), scratch);
    *rt = *scratch;
  }
  return Status::OK();
}

Result<bool> PairPredicate::RemainderHolds(const Schema& schema,
                                           const Tuple& t) const {
  if (fixed_rest_ == nullptr) return true;
  return fixed_rest_->EvalPredicateFixed(schema, t, rt_);
}

namespace {

// The relation-level joins lower a Join(Scan, Scan) plan with the
// algorithm forced and drain it into a result relation; the ongoing
// scans lend the inputs to the join without copying them.
Result<OngoingRelation> RunJoin(JoinAlgorithm algorithm,
                                const OngoingRelation& left,
                                const OngoingRelation& right,
                                const ExprPtr& predicate,
                                const std::string& left_prefix,
                                const std::string& right_prefix) {
  ONGOINGDB_ASSIGN_OR_RETURN(
      PhysicalOpPtr op,
      Compile(Join(Scan(&left, left_prefix), Scan(&right, right_prefix),
                   predicate, left_prefix, right_prefix, algorithm),
              ExecMode::kOngoing));
  return DrainToRelation(*op);
}

}  // namespace

Result<OngoingRelation> NestedLoopJoin(const OngoingRelation& left,
                                       const OngoingRelation& right,
                                       const ExprPtr& predicate,
                                       const std::string& left_prefix,
                                       const std::string& right_prefix) {
  return RunJoin(JoinAlgorithm::kNestedLoop, left, right, predicate,
                 left_prefix, right_prefix);
}

Result<OngoingRelation> HashJoin(const OngoingRelation& left,
                                 const OngoingRelation& right,
                                 const ExprPtr& predicate,
                                 const std::string& left_prefix,
                                 const std::string& right_prefix) {
  return RunJoin(JoinAlgorithm::kHash, left, right, predicate, left_prefix,
                 right_prefix);
}

}  // namespace ongoingdb
