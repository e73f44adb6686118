// The Clifford et al. baseline [3]: the state-of-the-art approach the
// paper compares against. Ongoing time points are *instantiated* at a
// chosen reference time whenever they are accessed; queries are then
// evaluated with ordinary fixed semantics. The result is only valid at
// the chosen reference time and gets invalidated as time passes by —
// re-running the query at a new reference time requires a full
// re-evaluation, which is exactly what the paper's Fig. 8/10/11
// experiments quantify. The engine evaluates a plan this way with
// ExecuteAtReferenceTime (query/executor.h).
//
// Cliff_max (Sec. IX-A) uses a reference time greater than the latest end
// point in the data, the typical use case of reference times close to
// the current time.
#pragma once

#include "relation/relation.h"

namespace ongoingdb {

/// A reference time strictly greater than every finite time point
/// appearing in the relation's ongoing and fixed temporal attributes —
/// the Cliff_max choice of the paper's evaluation.
TimePoint CliffMaxReferenceTime(const OngoingRelation& r);

/// Replaces every ongoing attribute value by its instantiation at `rt`,
/// keeping all tuples (trivial RT). Used to build the Fig. 9 baseline
/// data sets "without ongoing intervals".
OngoingRelation StripOngoing(const OngoingRelation& r, TimePoint rt);

}  // namespace ongoingdb
