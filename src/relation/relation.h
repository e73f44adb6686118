// Ongoing relations (Def. 5 of the paper): finite sets of tuples over a
// schema of fixed and ongoing attributes, each tuple carrying a reference
// time attribute RT. The bind operator ||R||rt instantiates the relation
// at a reference time, keeping exactly the tuples whose RT contains rt.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "relation/schema.h"
#include "relation/tuple.h"
#include "relation/tuple_store.h"
#include "util/result.h"

namespace ongoingdb {

/// One logged change to a relation's tuple multiset. Torp modifications
/// (relation/modifications.h) decompose into these primitives: an insert
/// adds a tuple, a valid-time close removes the old tuple and (unless
/// the closed interval is always empty) inserts the closed replacement.
struct Modification {
  enum class Kind { kInsert, kRemove };

  /// Monotonically increasing per-log sequence number (dense: every
  /// logged change consumes exactly one).
  uint64_t seq = 0;
  Kind kind = Kind::kInsert;
  Tuple tuple;
};

/// A bounded ring of a relation's recent modifications, consumed by
/// incremental view maintenance (query/view_maintenance.h): a consumer
/// remembers the next sequence it has not applied and replays everything
/// since. When the ring has trimmed past a consumer's cursor the replay
/// is refused and the consumer falls back to a full recompute.
class ModificationLog {
 public:
  static constexpr size_t kDefaultCapacity = 65536;

  explicit ModificationLog(size_t capacity = kDefaultCapacity)
      : capacity_(std::max<size_t>(1, capacity)) {}

  /// Appends one entry; returns its sequence number.
  uint64_t Append(Modification::Kind kind, Tuple tuple);

  /// The sequence number the next Append will assign. A consumer that
  /// has applied everything up to here is current.
  uint64_t next_seq() const { return next_seq_; }

  /// The oldest sequence number still replayable. Cursors below this
  /// predate the ring's retention.
  uint64_t first_available_seq() const { return first_available_; }

  /// Appends pointers to every retained entry with seq >= since, in
  /// sequence order. Returns false (appending nothing) when `since`
  /// predates retention — the consumer must fall back to a rebuild.
  bool EntriesSince(uint64_t since,
                    std::vector<const Modification*>* out) const;

  size_t size() const { return entries_.size(); }

 private:
  size_t capacity_;
  uint64_t next_seq_ = 1;
  uint64_t first_available_ = 1;
  std::deque<Modification> entries_;
};

/// A relation with fixed and ongoing attributes and a reference time
/// attribute per tuple.
class OngoingRelation {
 public:
  OngoingRelation() = default;
  explicit OngoingRelation(Schema schema) : schema_(std::move(schema)) {}

  // A copy shares the tuples' full chunks (relation/tuple_store.h) and
  // copies only the partial last one: O(size() / TupleStore::kChunkSize +
  // TupleStore::kChunkSize). Mutating either side afterwards leaves the
  // other unchanged.
  //
  // The modification log is bound to the relation's *identity*, not its
  // value: a copy is a different relation and starts without a log, and
  // wholesale replacement via copy-assignment drops the target's log —
  // the replaced content is not expressible as logged deltas, and a
  // consumer holding the old log detects the detachment and rebuilds.
  // Moves transfer the log with the rest of the state.
  OngoingRelation(const OngoingRelation& other)
      : schema_(other.schema_), tuples_(other.tuples_) {}
  OngoingRelation& operator=(const OngoingRelation& other) {
    if (this != &other) {
      schema_ = other.schema_;
      tuples_ = other.tuples_;
      log_.reset();
    }
    return *this;
  }
  OngoingRelation(OngoingRelation&&) = default;
  OngoingRelation& operator=(OngoingRelation&&) = default;

  const Schema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  /// The tuples' read view: range-for walks each chunk by pointer;
  /// indexed access is a shift and a mask.
  const TupleStore& tuples() const { return tuples_; }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }

  /// Checks a row against the schema: arity, and the type of every
  /// value. A NULL matches no attribute type: neither the paper's model
  /// nor the SQL surface has NULL, so a stored relation never holds one.
  /// The check Insert and InsertWithRt run.
  Status ValidateValues(const std::vector<Value>& values) const;

  /// Inserts a base tuple (RT is set to the trivial reference time by the
  /// system). Fails on arity or type mismatch with the schema.
  Status Insert(std::vector<Value> values);

  /// Inserts a tuple with an explicit reference time. Tuples with an
  /// empty RT are rejected: they belong to no instantiated relation.
  Status InsertWithRt(std::vector<Value> values, IntervalSet rt);

  /// Appends a pre-validated tuple (used by operators on already typed
  /// intermediate results). Tuples with empty RT are silently dropped,
  /// matching the algebra's x.RT != {} conditions. The caller vouches for
  /// what ValidateValues would check, a NULL-free row of the schema's
  /// types; rows that arrive from outside go through Insert or
  /// InsertWithRt, and the serving catalog validates every row it
  /// registers.
  void AppendUnchecked(Tuple tuple);

  /// Removes tuple i by swapping the last tuple into its place; tuple
  /// order is not preserved. O(1) when tuple i and the last tuple both
  /// lie in the partial last chunk; full chunks are shared and immutable,
  /// so each one the removal writes to is copied first,
  /// O(TupleStore::kChunkSize). Logs a kRemove entry when the
  /// modification log is enabled.
  void SwapRemove(size_t i);

  /// Reserves capacity for n tuples.
  void Reserve(size_t n) { tuples_.reserve(n); }

  /// Write access for one in-place modification (see TupleStore::Edit).
  /// Logs nothing: the caller logs the deltas it makes, as the Torp
  /// modifications in relation/modifications.cc do.
  TupleStore::Edit EditTuples() { return TupleStore::Edit(&tuples_); }

  /// Enables the modification log (idempotent; an existing log and its
  /// entries are kept). Once enabled, Insert/InsertWithRt/AppendUnchecked
  /// log a kInsert for every tuple actually appended and SwapRemove logs
  /// a kRemove; the Torp modifications in relation/modifications.cc log
  /// each matched tuple's removal and the insertions that replace it.
  /// Opt-in because operator intermediates churn through AppendUnchecked.
  void EnableModificationLog(
      size_t capacity = ModificationLog::kDefaultCapacity);

  /// The modification log, or nullptr when not enabled.
  ModificationLog* modification_log() const { return log_.get(); }

  /// Shares ownership of the log, so a consumer can hold it and detect
  /// when the relation's log is replaced (query/view_maintenance.h).
  std::shared_ptr<ModificationLog> SharedModificationLog() const {
    return log_;
  }

  /// The union of all reference times at which some tuple belongs to the
  /// instantiated relation.
  IntervalSet CoveredReferenceTimes() const;

  /// Renders the relation as an aligned table (for the examples).
  std::string ToString(size_t max_rows = 50) const;

 private:
  Schema schema_;
  TupleStore tuples_;
  std::shared_ptr<ModificationLog> log_;
};

/// The bind operator ||R||rt on relations (Sec. VII-A): instantiates the
/// ongoing attributes of every tuple whose RT contains rt and omits all
/// other tuples. The result is a fixed relation represented as an ongoing
/// relation with instantiated schema and trivial reference times.
OngoingRelation InstantiateRelation(const OngoingRelation& r, TimePoint rt);

/// Set-semantics comparison of two *instantiated* relations: equal iff
/// they contain the same set of attribute-value lists (RT ignored,
/// duplicates collapsed). Used to verify snapshot equivalence
/// ||Q(D)||rt == Q(||D||rt).
bool InstantiatedRelationsEqual(const OngoingRelation& a,
                                const OngoingRelation& b);

}  // namespace ongoingdb
