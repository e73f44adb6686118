// Bug-tracker analytics: the workload the paper's introduction
// motivates, on a generated MozillaBugs-like data set.
//
// Demonstrates, on top of the public API:
//   * queries over ongoing valid times whose results stay valid,
//   * the duration extension (how long a bug has been open, as an
//     ongoing integer),
//   * the interval index extension for selective overlap probes.
//
// Build & run:  ./build/examples/bug_tracker
#include <cstdio>
#include <iostream>

#include "core/ongoing_int.h"
#include "core/operations.h"
#include "datasets/mozilla.h"
#include "query/executor.h"
#include "query/interval_index.h"

using namespace ongoingdb;

int main() {
  datasets::MozillaBugs data = datasets::GenerateMozillaBugs(4000);
  std::printf("Generated bug tracker: %zu bugs, %zu assignments, %zu "
              "severity records\n\n",
              data.bug_info.size(), data.bug_assignment.size(),
              data.bug_severity.size());

  // --- 1. Which Spam filter bugs are open during the release window? -------
  const FixedInterval release{data.history_end - 90, data.history_end};
  PlanPtr open_during_release =
      Filter(Scan(&data.bug_info, "B"),
             And(Eq(Col("Component"), Lit("Spam filter")),
                 OverlapsExpr(Col("VT"),
                              Lit(OngoingInterval::Fixed(release.start,
                                                         release.end)))));
  auto result = Execute(open_during_release);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::printf("1. Spam filter bugs open during the release window %s:\n"
              "   %zu bugs in the ongoing result. The result's RT tells\n"
              "   each bug's qualifying reference times - no re-query\n"
              "   needed as time passes by.\n\n",
              FormatFixedInterval(release).c_str(), result->size());

  // --- 2. Age of a deprioritized bug (duration extension) ------------------
  size_t vt_idx = *data.bug_info.schema().IndexOf("VT");
  for (const Tuple& t : data.bug_info.tuples()) {
    const OngoingInterval& vt = t.value(vt_idx).AsOngoingInterval();
    if (vt.Kind() != IntervalKind::kExpanding) continue;
    OngoingInt age = Duration(vt);
    std::printf("2. Bug %lld has been open %s days.\n"
                "   As of %s that is %lld days; one year later it will "
                "be %lld days -\n   the ongoing integer stays valid as "
                "time passes by.\n\n",
                static_cast<long long>(t.value(0).AsInt64()),
                age.ToString().c_str(),
                FormatTimePoint(data.history_end).c_str(),
                static_cast<long long>(age.Instantiate(data.history_end)),
                static_cast<long long>(
                    age.Instantiate(data.history_end + 365)));
    break;
  }

  // --- 3. Index-accelerated overlap probe (index extension) ----------------
  auto index = IntervalIndex::Build(data.bug_info, "VT");
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }
  FixedInterval probe{data.history_end - 7, data.history_end};
  std::vector<size_t> candidates;
  index->CandidatesInto(IntervalProbeOp::kOverlaps, IntervalBounds::Of(probe),
                        &candidates);
  std::printf("3. Interval index: %zu of %zu bugs are candidates for "
              "overlapping the last week %s;\n   the exact ongoing "
              "'overlaps' predicate runs only on those.\n",
              candidates.size(), data.bug_info.size(),
              FormatFixedInterval(probe).c_str());
  return 0;
}
