// Temporal aggregation over ongoing relations — the paper's second
// future-work item (Sec. X). Because each tuple belongs to the
// instantiated relations only during its reference time RT, an aggregate
// over an ongoing relation is a *function of the reference time*. The
// COUNT of an ongoing relation is returned as a piecewise-constant step
// function: at each reference time rt it equals the COUNT of ||R||rt.
// The aggregates take a relation; a query's result is aggregated after
// Execute (query/executor.h) materializes it.
#pragma once

#include <string>
#include <vector>

#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {

/// A piecewise-constant function of the reference time: gap-free,
/// ascending segments covering (-inf, +inf).
struct StepFunction {
  struct Step {
    FixedInterval range;
    int64_t value = 0;
    friend bool operator==(const Step&, const Step&) = default;
  };
  std::vector<Step> steps;

  /// The value at reference time rt.
  int64_t At(TimePoint rt) const;

  /// The largest value over all reference times.
  int64_t Max() const;

  std::string ToString() const;

  friend bool operator==(const StepFunction&, const StepFunction&) = default;
};

/// COUNT(R) as a function of the reference time: at each rt, the number
/// of tuples whose RT contains rt (= |{r in R | rt in r.RT}| =
/// |sigma(...)| of the instantiated relation).
StepFunction CountAtEachReferenceTime(const OngoingRelation& r);

/// Grouped COUNT: one step function per distinct value of the (fixed)
/// group-by attribute.
struct GroupedCount {
  Value group;
  StepFunction count;
};
Result<std::vector<GroupedCount>> CountGroupedBy(const OngoingRelation& r,
                                                 const std::string& column);

/// SUM(column)(rt) over the tuples whose RT contains rt. The column must
/// be a fixed int64 attribute.
Result<StepFunction> SumAtEachReferenceTime(const OngoingRelation& r,
                                            const std::string& column);

/// MIN/MAX(column)(rt) over the tuples whose RT contains rt; reference
/// times with no tuples take `empty_value` (default 0).
Result<StepFunction> MinAtEachReferenceTime(const OngoingRelation& r,
                                            const std::string& column,
                                            int64_t empty_value = 0);
Result<StepFunction> MaxAtEachReferenceTime(const OngoingRelation& r,
                                            const std::string& column,
                                            int64_t empty_value = 0);

}  // namespace ongoingdb
