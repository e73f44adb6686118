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

#include <functional>

#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {

/// Matches tuples a modification applies to (evaluated on fixed
/// attributes; return true to modify).
using ModificationFilter = std::function<bool(const Tuple&)>;

/// The valid-time attribute temporal DML applies to: the first PERIOD
/// (ongoing interval) column of `schema`. InvalidArgument if none.
Result<size_t> VtIndexOf(const Schema& schema);

/// Inserts a tuple valid from the commit time on: the value at
/// `vt_index` is set to [tc, now).
Status TemporalInsert(OngoingRelation* r, std::vector<Value> values,
                      size_t vt_index, TimePoint tc);

/// Logically deletes matching tuples at commit time tc: each matching
/// tuple's valid-time end becomes min(end, tc). Tuples whose valid time
/// thereby becomes empty at every reference time are removed. Returns
/// the number of modified tuples.
Result<size_t> TemporalDelete(OngoingRelation* r, size_t vt_index,
                              TimePoint tc, const ModificationFilter& filter);

/// Logically updates matching tuples at commit time tc: the old version
/// is closed at tc (end := min(end, tc)) and a new version with values
/// produced by `updater` becomes valid as [tc, now). Each updater row is
/// validated against the schema (arity, types) before it is written to;
/// a bad row fails the update with neither *r nor its modification log
/// changed. Returns the number of updated tuples.
Result<size_t> TemporalUpdate(
    OngoingRelation* r, size_t vt_index, TimePoint tc,
    const ModificationFilter& filter,
    const std::function<std::vector<Value>(const Tuple&)>& updater);

}  // namespace ongoingdb
