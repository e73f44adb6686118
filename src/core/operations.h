// Operations on ongoing data types whose results remain valid as time
// passes by (Sec. VI of the paper). Each operation satisfies the paper's
// correctness criterion: at every reference time rt, instantiating the
// result equals applying the corresponding fixed operation to the
// instantiated arguments, e.g.
//
//     forall rt:  ||Less(t1, t2)||rt  <=>  ||t1||rt <  ||t2||rt
//     forall rt:  ||Min(t1, t2)||rt   ==   min(||t1||rt, ||t2||rt)
//
// The six core operations <, min, max, and ^, v, not are defined by the
// equivalences proven in Theorem 1, and every other predicate — the
// comparisons and the Allen interval relations of Table II — is a
// composition of them. The predicates compute that composition in one
// pass, without heap allocation. The Fig. 6 decision tree (at most three
// fixed-value comparisons) puts the reference times at which a+b < c+d
// is false into a single interval, its "gap". A conjunction of <=/=
// terms is then one window, a conjunction of < terms is the complement
// of the union of their gaps, and each Table II predicate is a window
// minus at most four gaps (During and Equals: the union of two such
// parts), swept once from a stack array straight into the result's
// inline interval storage.
#pragma once

#include "core/ongoing_boolean.h"
#include "core/ongoing_interval.h"
#include "core/ongoing_point.h"

namespace ongoingdb {

// ---------------------------------------------------------------------------
// Core operations on ongoing time points (Def. 4 / Theorem 1).
// ---------------------------------------------------------------------------

/// t1 < t2 as an ongoing boolean, via the Fig. 6 decision tree.
OngoingBoolean Less(const OngoingTimePoint& t1, const OngoingTimePoint& t2);

/// min(a+b, c+d) = min(a,c) + min(b,d); Omega is closed under min.
OngoingTimePoint Min(const OngoingTimePoint& t1, const OngoingTimePoint& t2);

/// max(a+b, c+d) = max(a,c) + max(b,d); Omega is closed under max.
OngoingTimePoint Max(const OngoingTimePoint& t1, const OngoingTimePoint& t2);

// ---------------------------------------------------------------------------
// Derived predicates on ongoing time points (Table II).
// ---------------------------------------------------------------------------

/// t1 <= t2  ==  not(t2 < t1).
OngoingBoolean LessEqual(const OngoingTimePoint& t1,
                         const OngoingTimePoint& t2);

/// t1 > t2  ==  t2 < t1.
OngoingBoolean Greater(const OngoingTimePoint& t1, const OngoingTimePoint& t2);

/// t1 >= t2  ==  not(t1 < t2).
OngoingBoolean GreaterEqual(const OngoingTimePoint& t1,
                            const OngoingTimePoint& t2);

/// t1 = t2  ==  t1 <= t2 ^ t2 <= t1.
OngoingBoolean Equal(const OngoingTimePoint& t1, const OngoingTimePoint& t2);

/// t1 != t2  ==  t1 < t2 v t2 < t1.
OngoingBoolean NotEqual(const OngoingTimePoint& t1,
                        const OngoingTimePoint& t2);

// ---------------------------------------------------------------------------
// Predicates and functions on ongoing time intervals (Table II). Ongoing
// time intervals can be partially empty, so every interval predicate
// carries the paper's explicit per-reference-time non-emptiness checks.
// ---------------------------------------------------------------------------

/// The reference times at which `iv` instantiates to a non-empty
/// interval: ts < te.
OngoingBoolean NonEmpty(const OngoingInterval& iv);

/// i1 before i2: te <= s2 ^ both non-empty.
OngoingBoolean Before(const OngoingInterval& i1, const OngoingInterval& i2);

/// i1 meets i2: te = s2 ^ both non-empty.
OngoingBoolean Meets(const OngoingInterval& i1, const OngoingInterval& i2);

/// i1 overlaps i2 (symmetric overlap as in the paper's Table II):
/// s1 < e2 ^ s2 < e1 ^ both non-empty.
OngoingBoolean Overlaps(const OngoingInterval& i1, const OngoingInterval& i2);

/// i1 starts i2: s1 = s2 ^ both non-empty.
OngoingBoolean Starts(const OngoingInterval& i1, const OngoingInterval& i2);

/// i1 finishes i2: e1 = e2 ^ both non-empty.
OngoingBoolean Finishes(const OngoingInterval& i1, const OngoingInterval& i2);

/// i1 during i2: (s2 <= s1 ^ e1 <= e2 ^ both non-empty) v (i1 empty ^ i2
/// non-empty). An empty interval is trivially contained in any non-empty
/// interval.
OngoingBoolean During(const OngoingInterval& i1, const OngoingInterval& i2);

/// i1 equals i2: (s1 = s2 ^ e1 = e2 ^ both non-empty) v (both empty).
OngoingBoolean Equals(const OngoingInterval& i1, const OngoingInterval& i2);

/// Interval intersection: [max(s1, s2), min(e1, e2)). May yield a
/// partially empty ongoing interval.
OngoingInterval Intersect(const OngoingInterval& i1,
                          const OngoingInterval& i2);

/// iv contains t: s <= t ^ t < e (timeslice predicate; empty intervals
/// contain nothing).
OngoingBoolean Contains(const OngoingInterval& iv, const OngoingTimePoint& t);

// ---------------------------------------------------------------------------
// Fixed-domain counterparts (the F-superscripted operations of the
// paper). Used by the Clifford baseline and by the property tests that
// verify the snapshot-equivalence criterion.
// ---------------------------------------------------------------------------

/// i1 before i2 on fixed intervals, with non-emptiness checks. Inline:
/// predicates test them once per stored tuple (query/join.h).
inline bool BeforeF(const FixedInterval& i1, const FixedInterval& i2) {
  return i1.end <= i2.start && !i1.empty() && !i2.empty();
}
inline bool MeetsF(const FixedInterval& i1, const FixedInterval& i2) {
  return i1.end == i2.start && !i1.empty() && !i2.empty();
}
inline bool OverlapsF(const FixedInterval& i1, const FixedInterval& i2) {
  return i1.start < i2.end && i2.start < i1.end && !i1.empty() &&
         !i2.empty();
}
inline bool StartsF(const FixedInterval& i1, const FixedInterval& i2) {
  return i1.start == i2.start && !i1.empty() && !i2.empty();
}
inline bool FinishesF(const FixedInterval& i1, const FixedInterval& i2) {
  return i1.end == i2.end && !i1.empty() && !i2.empty();
}
inline bool DuringF(const FixedInterval& i1, const FixedInterval& i2) {
  if (i1.empty()) return !i2.empty();
  return i2.start <= i1.start && i1.end <= i2.end && !i2.empty();
}
inline bool EqualsF(const FixedInterval& i1, const FixedInterval& i2) {
  if (i1.empty() || i2.empty()) return i1.empty() && i2.empty();
  return i1.start == i2.start && i1.end == i2.end;
}

/// Fixed interval intersection.
FixedInterval IntersectF(const FixedInterval& i1, const FixedInterval& i2);

/// Fixed containment: i1.start <= t < i1.end.
inline bool ContainsF(const FixedInterval& i1, TimePoint t) {
  return i1.Contains(t);
}

}  // namespace ongoingdb
