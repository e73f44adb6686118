// Temporal modification semantics for ongoing relations, following Torp
// et al. [4] ("Modification Semantics in Now-Relative Databases"), whose
// key insight the paper builds on: modifications of tuples whose valid
// time contains now must combine the old endpoint with the commit time
// via min/max — instantiating now at modification time corrupts the
// database. Because Omega is closed under min and max (Theorem 1), all
// of these operations stay exact in this library:
//
//   insert at tc:  VT = [tc, now)              (valid from now on)
//   delete at tc:  VT.end   := min(VT.end, tc) (stops being valid at tc)
//   update at tc:  close the old version at tc and insert the new
//                  version with VT = [tc, now)
//
// A deletion of a tuple with VT = [a, now) yields [a, +tc) — "valid
// until possibly earlier, but not later than tc" — which neither Tnow
// nor Tf can represent for subsequent modifications in general.
#pragma once

#include <concepts>
#include <functional>
#include <type_traits>
#include <utility>

#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {

/// Matches the tuples a modification applies to, on fixed attributes.
/// It holds a tuple test (true to modify; an error fails the
/// modification before anything changes) and, optionally, a chunk test:
/// true when a full chunk's synopsis (relation/tuple_store.h) proves
/// that the tuple test neither matches nor fails on any tuple of the
/// chunk. The match then passes over that chunk's tuples without testing
/// them, so the chunk test must never rule out a chunk the tuple test
/// would match a row of or fail on. sql::MakeModificationFilter supplies
/// one, which rules chunks out by the WHERE's leading comparisons of
/// INT64 columns with INT64 literals; any callable on a tuple returning
/// bool or Result<bool> converts to a filter without one, which tests
/// every tuple.
class ModificationFilter {
 public:
  using TupleTest = std::function<Result<bool>(const Tuple&)>;
  using ChunkTest = std::function<bool(const ChunkSynopsis&)>;

  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, ModificationFilter> &&
             std::convertible_to<std::invoke_result_t<const F&, const Tuple&>,
                                 Result<bool>>)
  ModificationFilter(F test)  // NOLINT(runtime/explicit)
      : tuple_test_(std::move(test)) {}

  ModificationFilter(TupleTest tuple_test, ChunkTest chunk_test)
      : tuple_test_(std::move(tuple_test)),
        chunk_test_(std::move(chunk_test)) {}

  /// The tuple test.
  Result<bool> operator()(const Tuple& t) const { return tuple_test_(t); }

  /// Empty when the filter has none.
  const ChunkTest& chunk_test() const { return chunk_test_; }

 private:
  TupleTest tuple_test_;
  ChunkTest chunk_test_;
};

/// The valid-time attribute temporal DML applies to: the first PERIOD
/// (ongoing interval) column of `schema`. InvalidArgument if none.
Result<size_t> VtIndexOf(const Schema& schema);

/// Inserts a tuple valid from the commit time on: the value at
/// `vt_index` is set to [tc, now) before Insert validates the row, so
/// the caller may pass any placeholder there (a NULL).
Status TemporalInsert(OngoingRelation* r, std::vector<Value> values,
                      size_t vt_index, TimePoint tc);

/// Logically deletes matching tuples at commit time tc: each matching
/// tuple's valid-time end becomes min(end, tc). A matching tuple whose
/// valid time that leaves unchanged (already closed at or before tc) is
/// not modified. Tuples whose valid time thereby becomes empty at every
/// reference time are removed. Edits *r
/// in place, so tuple order may change, and logs each matched tuple's
/// removal and its closed replacement when *r's log is enabled. A filter
/// error fails the delete with neither *r nor its log changed. Returns
/// the number of modified tuples.
Result<size_t> TemporalDelete(OngoingRelation* r, size_t vt_index,
                              TimePoint tc, const ModificationFilter& filter);

/// Logically updates matching tuples at commit time tc: the old version
/// is closed at tc (end := min(end, tc)) and a new version with values
/// produced by `updater` becomes valid as [tc, now). As for
/// TemporalDelete, a tuple already closed at or before tc is neither
/// closed nor re-versioned. Edits and logs like
/// TemporalDelete, plus each new version's insertion. Each updater row is
/// validated against the schema (arity, types, no NULL) before anything
/// changes; a bad row fails the update with neither *r nor its
/// modification log changed. Returns the number of updated tuples.
Result<size_t> TemporalUpdate(
    OngoingRelation* r, size_t vt_index, TimePoint tc,
    const ModificationFilter& filter,
    const std::function<std::vector<Value>(const Tuple&)>& updater);

}  // namespace ongoingdb
