#include "core/operations.h"

#include <algorithm>

namespace ongoingdb {

namespace {

// The Fig. 6 decision tree in gap form. Writing a+b = t1 and c+d = t2,
// the ordering invariants a <= b and c <= d reduce Theorem 1's five
// cases to at most three fixed-value comparisons, and the reference
// times at which t1 < t2 is *false* always form one interval [lo, hi):
//
//   b < c              (true everywhere)      empty (hi = b+1 <= c = lo)
//   a < c <= b < d     (true before c, from b+1 on)   [c, b+1)
//   c <= a, b < d      (true from b+1 on)             [-inf, b+1)
//   a < c, d <= b      (true before c)                [c, +inf)
//   c <= a, d <= b     (false everywhere)             [-inf, +inf)
//
// b < d <= +inf, so b+1 never passes +inf; when it reaches +inf the
// "from b+1 on" piece is empty, as the universe ends there. So
// St(t1 < t2) = T \ LessGap(t1, t2) and St(t2 <= t1) = LessGap(t1, t2):
// every Table II predicate is a window (a conjunction of <= and =
// terms, each one interval) minus the union of the gaps of its < terms.
FixedInterval LessGap(const OngoingTimePoint& t1, const OngoingTimePoint& t2) {
  return FixedInterval{t1.a() < t2.a() ? t2.a() : kMinInfinity,
                       t1.b() < t2.b() ? t1.b() + 1 : kMaxInfinity};
}

// Intersection of two windows; may be empty (start >= end).
FixedInterval Meet(FixedInterval x, FixedInterval y) {
  return FixedInterval{std::max(x.start, y.start), std::min(x.end, y.end)};
}

// St of t1 = t2: both <= windows at once.
FixedInterval EqualWindow(const OngoingTimePoint& t1,
                          const OngoingTimePoint& t2) {
  return Meet(LessGap(t1, t2), LessGap(t2, t1));
}

constexpr FixedInterval kAllTime{kMinInfinity, kMaxInfinity};
constexpr FixedInterval kNoGap{kMaxInfinity, kMaxInfinity};

// Upper bound on the intervals of one predicate's St: a window minus
// four gaps leaves at most five pieces, and the two-part unions of
// During/Equals stay below eight. (Exhaustively the Table II
// predicates never exceed three; see tests/core_property_test.cc.)
constexpr size_t kMaxPieces = 8;

// Writes window \ (gaps[0] u ... u gaps[n-1]) to `out` as ascending,
// disjoint, maximal intervals and returns their count: the gaps are
// clipped to the window (a gap covering it empties the result at
// once), sorted by start, and swept once. `gaps` is reused as scratch.
size_t WindowMinusGaps(FixedInterval window, FixedInterval* gaps, size_t n,
                       FixedInterval* out) {
  window = Meet(window, kAllTime);
  if (window.start >= window.end) return 0;
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const FixedInterval g = Meet(gaps[i], window);
    if (g.start >= g.end) continue;
    if (g.start == window.start && g.end == window.end) return 0;
    size_t j = m++;
    for (; j > 0 && gaps[j - 1].start > g.start; --j) gaps[j] = gaps[j - 1];
    gaps[j] = g;
  }
  size_t count = 0;
  TimePoint cursor = window.start;
  for (size_t i = 0; i < m; ++i) {
    if (gaps[i].start > cursor) {
      out[count++] = FixedInterval{cursor, gaps[i].start};
    }
    cursor = std::max(cursor, gaps[i].end);
  }
  if (cursor < window.end) out[count++] = FixedInterval{cursor, window.end};
  return count;
}

// The ongoing boolean whose St is window \ (union of gaps); the gaps
// arrive as a braced list in a stack array.
template <size_t N>
OngoingBoolean WindowMinus(FixedInterval window, FixedInterval (&&gaps)[N]) {
  FixedInterval out[kMaxPieces];
  const size_t count = WindowMinusGaps(window, gaps, N, out);
  return OngoingBoolean(IntervalSet::FromNormalized(out, count));
}

// The ongoing boolean whose St is one window.
OngoingBoolean Window(FixedInterval window) {
  window = Meet(window, kAllTime);
  if (window.start >= window.end) return OngoingBoolean();
  return OngoingBoolean(IntervalSet::FromNormalized(&window, 1));
}

// Union of two parts window_i \ gaps_i (During and Equals are
// disjunctions): both sweeps, then one merge of the two ascending lists.
template <size_t N1, size_t N2>
OngoingBoolean UnionOfParts(FixedInterval w1, FixedInterval (&&gaps1)[N1],
                            FixedInterval w2, FixedInterval (&&gaps2)[N2]) {
  FixedInterval x[kMaxPieces], y[kMaxPieces], out[kMaxPieces];
  const size_t nx = WindowMinusGaps(w1, gaps1, N1, x);
  const size_t ny = WindowMinusGaps(w2, gaps2, N2, y);
  size_t i = 0, j = 0, count = 0;
  while (i < nx || j < ny) {
    const FixedInterval& iv =
        (j >= ny || (i < nx && x[i].start <= y[j].start)) ? x[i++] : y[j++];
    if (count > 0 && out[count - 1].end >= iv.start) {
      out[count - 1].end = std::max(out[count - 1].end, iv.end);
    } else {
      out[count++] = iv;
    }
  }
  return OngoingBoolean(IntervalSet::FromNormalized(out, count));
}

// The gap of an interval's non-emptiness check ts < te.
FixedInterval EmptyGap(const OngoingInterval& iv) {
  return LessGap(iv.start(), iv.end());
}

}  // namespace

OngoingBoolean Less(const OngoingTimePoint& t1, const OngoingTimePoint& t2) {
  return WindowMinus(kAllTime, {LessGap(t1, t2)});
}

OngoingTimePoint Min(const OngoingTimePoint& t1, const OngoingTimePoint& t2) {
  return OngoingTimePoint(std::min(t1.a(), t2.a()), std::min(t1.b(), t2.b()));
}

OngoingTimePoint Max(const OngoingTimePoint& t1, const OngoingTimePoint& t2) {
  return OngoingTimePoint(std::max(t1.a(), t2.a()), std::max(t1.b(), t2.b()));
}

OngoingBoolean LessEqual(const OngoingTimePoint& t1,
                         const OngoingTimePoint& t2) {
  return Window(LessGap(t2, t1));
}

OngoingBoolean Greater(const OngoingTimePoint& t1,
                       const OngoingTimePoint& t2) {
  return Less(t2, t1);
}

OngoingBoolean GreaterEqual(const OngoingTimePoint& t1,
                            const OngoingTimePoint& t2) {
  return LessEqual(t2, t1);
}

OngoingBoolean Equal(const OngoingTimePoint& t1, const OngoingTimePoint& t2) {
  return Window(EqualWindow(t1, t2));
}

OngoingBoolean NotEqual(const OngoingTimePoint& t1,
                        const OngoingTimePoint& t2) {
  return WindowMinus(kAllTime, {EqualWindow(t1, t2)});
}

OngoingBoolean NonEmpty(const OngoingInterval& iv) {
  return WindowMinus(kAllTime, {EmptyGap(iv)});
}

// Every Allen predicate carries both non-emptiness checks as two gaps.

OngoingBoolean Before(const OngoingInterval& i1, const OngoingInterval& i2) {
  return WindowMinus(LessGap(i2.start(), i1.end()),
                     {EmptyGap(i1), EmptyGap(i2)});
}

OngoingBoolean Meets(const OngoingInterval& i1, const OngoingInterval& i2) {
  return WindowMinus(EqualWindow(i1.end(), i2.start()),
                     {EmptyGap(i1), EmptyGap(i2)});
}

OngoingBoolean Overlaps(const OngoingInterval& i1, const OngoingInterval& i2) {
  return WindowMinus(kAllTime,
                     {LessGap(i1.start(), i2.end()),
                      LessGap(i2.start(), i1.end()), EmptyGap(i1),
                      EmptyGap(i2)});
}

OngoingBoolean Starts(const OngoingInterval& i1, const OngoingInterval& i2) {
  return WindowMinus(EqualWindow(i1.start(), i2.start()),
                     {EmptyGap(i1), EmptyGap(i2)});
}

OngoingBoolean Finishes(const OngoingInterval& i1, const OngoingInterval& i2) {
  return WindowMinus(EqualWindow(i1.end(), i2.end()),
                     {EmptyGap(i1), EmptyGap(i2)});
}

OngoingBoolean During(const OngoingInterval& i1, const OngoingInterval& i2) {
  // (s2 <= s1 ^ e1 <= e2 ^ both non-empty) v (i1 empty ^ i2 non-empty).
  return UnionOfParts(Meet(LessGap(i1.start(), i2.start()),
                           LessGap(i2.end(), i1.end())),
                      {EmptyGap(i1), EmptyGap(i2)}, EmptyGap(i1),
                      {EmptyGap(i2)});
}

OngoingBoolean Equals(const OngoingInterval& i1, const OngoingInterval& i2) {
  // (s1 = s2 ^ e1 = e2 ^ both non-empty) v (both empty).
  return UnionOfParts(Meet(EqualWindow(i1.start(), i2.start()),
                           EqualWindow(i1.end(), i2.end())),
                      {EmptyGap(i1), EmptyGap(i2)},
                      Meet(EmptyGap(i1), EmptyGap(i2)),
                      {kNoGap});  // the second part is its window alone
}

OngoingInterval Intersect(const OngoingInterval& i1,
                          const OngoingInterval& i2) {
  return OngoingInterval(Max(i1.start(), i2.start()), Min(i1.end(), i2.end()));
}

OngoingBoolean Contains(const OngoingInterval& iv,
                        const OngoingTimePoint& t) {
  // s <= t ^ t < e; no separate non-emptiness check is needed because
  // s <= t < e already implies s < e.
  return WindowMinus(LessGap(t, iv.start()), {LessGap(t, iv.end())});
}

// --------------------------------------------------------------------------
// Fixed-domain counterparts.
// --------------------------------------------------------------------------

FixedInterval IntersectF(const FixedInterval& i1, const FixedInterval& i2) {
  return FixedInterval{std::max(i1.start, i2.start),
                       std::min(i1.end, i2.end)};
}


}  // namespace ongoingdb
