// Randomized property tests of the paper's central correctness criterion
// (Def. 4) for *all* operations on ongoing data types:
//
//     forall rt:  ||op(x1, ..., xn)||rt == opF(||x1||rt, ..., ||xn||rt)
//
// Each test draws random ongoing operands (mixing fixed, now, growing,
// limited and general a+b shapes) and sweeps reference times across and
// beyond the operand range.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/operations.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

namespace ongoingdb {
namespace {

OngoingTimePoint RandomPoint(Rng& rng) {
  switch (rng.Uniform(0, 4)) {
    case 0:
      return OngoingTimePoint::Fixed(rng.Uniform(-25, 25));
    case 1:
      return OngoingTimePoint::Now();
    case 2:
      return OngoingTimePoint::Growing(rng.Uniform(-25, 25));
    case 3:
      return OngoingTimePoint::Limited(rng.Uniform(-25, 25));
    default: {
      TimePoint a = rng.Uniform(-25, 25);
      return OngoingTimePoint(a, a + rng.Uniform(0, 20));
    }
  }
}

OngoingInterval RandomInterval(Rng& rng) {
  return OngoingInterval(RandomPoint(rng), RandomPoint(rng));
}

class CorePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr TimePoint kRtLo = -60;
  static constexpr TimePoint kRtHi = 60;
};

TEST_P(CorePropertyTest, PointOperations) {
  Rng rng(GetParam() * 2654435761u + 1);
  OngoingTimePoint t1 = RandomPoint(rng);
  OngoingTimePoint t2 = RandomPoint(rng);
  OngoingBoolean lt = Less(t1, t2);
  OngoingTimePoint mn = Min(t1, t2);
  OngoingTimePoint mx = Max(t1, t2);
  for (TimePoint rt = kRtLo; rt <= kRtHi; ++rt) {
    TimePoint v1 = t1.Instantiate(rt), v2 = t2.Instantiate(rt);
    EXPECT_EQ(lt.Instantiate(rt), v1 < v2);
    EXPECT_EQ(mn.Instantiate(rt), std::min(v1, v2));
    EXPECT_EQ(mx.Instantiate(rt), std::max(v1, v2));
  }
}

TEST_P(CorePropertyTest, LogicalConnectives) {
  Rng rng(GetParam() * 2654435761u + 2);
  OngoingBoolean b1 = Less(RandomPoint(rng), RandomPoint(rng));
  OngoingBoolean b2 = Less(RandomPoint(rng), RandomPoint(rng));
  OngoingBoolean conj = b1.And(b2);
  OngoingBoolean disj = b1.Or(b2);
  OngoingBoolean neg = b1.Not();
  for (TimePoint rt = kRtLo; rt <= kRtHi; ++rt) {
    bool v1 = b1.Instantiate(rt), v2 = b2.Instantiate(rt);
    EXPECT_EQ(conj.Instantiate(rt), v1 && v2);
    EXPECT_EQ(disj.Instantiate(rt), v1 || v2);
    EXPECT_EQ(neg.Instantiate(rt), !v1);
  }
}

TEST_P(CorePropertyTest, AllenPredicates) {
  Rng rng(GetParam() * 2654435761u + 3);
  OngoingInterval i1 = RandomInterval(rng);
  OngoingInterval i2 = RandomInterval(rng);
  OngoingBoolean before = Before(i1, i2);
  OngoingBoolean meets = Meets(i1, i2);
  OngoingBoolean overlaps = Overlaps(i1, i2);
  OngoingBoolean starts = Starts(i1, i2);
  OngoingBoolean finishes = Finishes(i1, i2);
  OngoingBoolean during = During(i1, i2);
  OngoingBoolean equals = Equals(i1, i2);
  for (TimePoint rt = kRtLo; rt <= kRtHi; ++rt) {
    FixedInterval f1 = i1.Instantiate(rt), f2 = i2.Instantiate(rt);
    EXPECT_EQ(before.Instantiate(rt), BeforeF(f1, f2)) << rt;
    EXPECT_EQ(meets.Instantiate(rt), MeetsF(f1, f2)) << rt;
    EXPECT_EQ(overlaps.Instantiate(rt), OverlapsF(f1, f2)) << rt;
    EXPECT_EQ(starts.Instantiate(rt), StartsF(f1, f2)) << rt;
    EXPECT_EQ(finishes.Instantiate(rt), FinishesF(f1, f2)) << rt;
    EXPECT_EQ(during.Instantiate(rt), DuringF(f1, f2)) << rt;
    EXPECT_EQ(equals.Instantiate(rt), EqualsF(f1, f2)) << rt;
  }
}

TEST_P(CorePropertyTest, IntervalIntersection) {
  Rng rng(GetParam() * 2654435761u + 4);
  OngoingInterval i1 = RandomInterval(rng);
  OngoingInterval i2 = RandomInterval(rng);
  OngoingInterval inter = Intersect(i1, i2);
  for (TimePoint rt = kRtLo; rt <= kRtHi; ++rt) {
    FixedInterval expect =
        IntersectF(i1.Instantiate(rt), i2.Instantiate(rt));
    FixedInterval got = inter.Instantiate(rt);
    // Intersections of instantiated intervals and instantiations of the
    // ongoing intersection must be the same point set (empty intervals
    // may differ in representation).
    if (expect.empty()) {
      EXPECT_TRUE(got.empty()) << rt;
    } else {
      EXPECT_EQ(got, expect) << rt;
    }
  }
}

TEST_P(CorePropertyTest, ComposedPredicateExpressions) {
  // Deeper expressions: (i1 overlaps i2) ^ not(p1 < p2) v (i1 before i2).
  Rng rng(GetParam() * 2654435761u + 5);
  OngoingInterval i1 = RandomInterval(rng);
  OngoingInterval i2 = RandomInterval(rng);
  OngoingTimePoint p1 = RandomPoint(rng);
  OngoingTimePoint p2 = RandomPoint(rng);
  OngoingBoolean expr =
      Overlaps(i1, i2).And(Less(p1, p2).Not()).Or(Before(i1, i2));
  for (TimePoint rt = kRtLo; rt <= kRtHi; ++rt) {
    bool expect = (OverlapsF(i1.Instantiate(rt), i2.Instantiate(rt)) &&
                   !(p1.Instantiate(rt) < p2.Instantiate(rt))) ||
                  BeforeF(i1.Instantiate(rt), i2.Instantiate(rt));
    EXPECT_EQ(expr.Instantiate(rt), expect) << rt;
  }
}

TEST_P(CorePropertyTest, MinMaxClosureAndMonotonicity) {
  Rng rng(GetParam() * 2654435761u + 6);
  OngoingTimePoint t1 = RandomPoint(rng);
  OngoingTimePoint t2 = RandomPoint(rng);
  OngoingTimePoint mn = Min(t1, t2);
  OngoingTimePoint mx = Max(t1, t2);
  // Closure: results are valid elements of Omega.
  EXPECT_LE(mn.a(), mn.b());
  EXPECT_LE(mx.a(), mx.b());
  // min <= max pointwise.
  for (TimePoint rt = kRtLo; rt <= kRtHi; rt += 5) {
    EXPECT_LE(mn.Instantiate(rt), mx.Instantiate(rt));
  }
  // Instantiations are monotone in rt (clamp functions are monotone).
  TimePoint prev = t1.Instantiate(kRtLo);
  for (TimePoint rt = kRtLo + 1; rt <= kRtHi; ++rt) {
    TimePoint cur = t1.Instantiate(rt);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST_P(CorePropertyTest, SmallIntervalSetOpsAreAllocationFree) {
  // Table IV: reference-time sets almost always hold 1-2 intervals. The
  // small-buffer IntervalSet must keep every such conjunction off the
  // heap — this pins down the hot path of join emission and predicate
  // evaluation. (This binary links the counting allocator.)
  Rng rng(GetParam() * 2654435761u + 7);
  auto random_small = [&rng] {
    std::vector<FixedInterval> ivs;
    const int n = static_cast<int>(rng.Uniform(1, 2));
    for (int i = 0; i < n; ++i) {
      TimePoint s = rng.Uniform(-100, 100);
      ivs.push_back({s, s + rng.Uniform(1, 40)});
    }
    return IntervalSet::FromUnsorted(std::move(ivs));
  };
  IntervalSet a = random_small();
  IntervalSet b = random_small();
  ASSERT_LE(a.IntervalCount(), 2u);
  ASSERT_LE(b.IntervalCount(), 2u);
  IntervalSet reused;
  OngoingBoolean x(a), y(b);
  AllocScope scope;
  IntervalSet direct = a.Intersect(b);
  a.IntersectInto(b, &reused);
  bool hit = a.Intersects(b);
  // Ongoing-boolean conjunction and negation ride on the same storage.
  OngoingBoolean conj = x.And(y);
  OngoingBoolean neg = x.Not();
  const uint64_t allocations = scope.count();
  EXPECT_EQ(allocations, 0u)
      << "set ops on 1-2 interval sets must not touch the heap: "
      << a.ToString() << " ^ " << b.ToString();
  EXPECT_EQ(hit, !direct.IsEmpty());
  EXPECT_EQ(reused, direct);
  EXPECT_EQ(conj.st(), direct);
  EXPECT_EQ(neg.st().Complement(), a);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CorePropertyTest,
                         ::testing::Range<uint64_t>(0, 100));

// --- Exhaustive check of the one-pass (gap form) predicates -------------
//
// Every ongoing point a+b with components from a small set that holds
// both infinities, every interval built from two such points, and every
// pair of them. For each pair and each predicate:
//   (a) St equals a reference that composes the Fig. 6 Less with
//       And/Not/Or term by term, as the Table II definitions read;
//   (b) the result instantiates to the fixed predicate at every rt;
//   (c) the call allocates nothing (the result fits IntervalSet's
//       inline storage).

// The Fig. 6 decision tree with its St built from a vector.
OngoingBoolean RefLess(const OngoingTimePoint& t1, const OngoingTimePoint& t2) {
  const TimePoint a = t1.a(), b = t1.b(), c = t2.a(), d = t2.b();
  std::vector<FixedInterval> st;
  if (b < d) {
    if (b < c) return OngoingBoolean::True();
    if (a < c) st.push_back({kMinInfinity, c});
    if (b + 1 < kMaxInfinity) st.push_back({b + 1, kMaxInfinity});
  } else if (a < c) {
    st.push_back({kMinInfinity, c});
  }
  return OngoingBoolean(IntervalSet::FromUnsorted(std::move(st)));
}
OngoingBoolean RefLessEqual(const OngoingTimePoint& x,
                            const OngoingTimePoint& y) {
  return RefLess(y, x).Not();
}
OngoingBoolean RefEqual(const OngoingTimePoint& x, const OngoingTimePoint& y) {
  return RefLessEqual(x, y).And(RefLessEqual(y, x));
}
OngoingBoolean RefNonEmpty(const OngoingInterval& i) {
  return RefLess(i.start(), i.end());
}
OngoingBoolean RefBoth(const OngoingInterval& i1, const OngoingInterval& i2) {
  return RefNonEmpty(i1).And(RefNonEmpty(i2));
}

struct IntervalPredicate {
  const char* name;
  OngoingBoolean (*fn)(const OngoingInterval&, const OngoingInterval&);
  bool (*fixed)(const FixedInterval&, const FixedInterval&);
  OngoingBoolean (*ref)(const OngoingInterval&, const OngoingInterval&);
};

const IntervalPredicate kAllenPredicates[] = {
    {"before", Before, BeforeF,
     [](const OngoingInterval& i1, const OngoingInterval& i2) {
       return RefLessEqual(i1.end(), i2.start()).And(RefBoth(i1, i2));
     }},
    {"meets", Meets, MeetsF,
     [](const OngoingInterval& i1, const OngoingInterval& i2) {
       return RefEqual(i1.end(), i2.start()).And(RefBoth(i1, i2));
     }},
    {"overlaps", Overlaps, OverlapsF,
     [](const OngoingInterval& i1, const OngoingInterval& i2) {
       return RefLess(i1.start(), i2.end())
           .And(RefLess(i2.start(), i1.end()))
           .And(RefBoth(i1, i2));
     }},
    {"starts", Starts, StartsF,
     [](const OngoingInterval& i1, const OngoingInterval& i2) {
       return RefEqual(i1.start(), i2.start()).And(RefBoth(i1, i2));
     }},
    {"finishes", Finishes, FinishesF,
     [](const OngoingInterval& i1, const OngoingInterval& i2) {
       return RefEqual(i1.end(), i2.end()).And(RefBoth(i1, i2));
     }},
    {"during", During, DuringF,
     [](const OngoingInterval& i1, const OngoingInterval& i2) {
       return RefLessEqual(i2.start(), i1.start())
           .And(RefLessEqual(i1.end(), i2.end()))
           .And(RefBoth(i1, i2))
           .Or(RefLessEqual(i1.end(), i1.start()).And(RefNonEmpty(i2)));
     }},
    {"equals", Equals, EqualsF,
     [](const OngoingInterval& i1, const OngoingInterval& i2) {
       return RefEqual(i1.start(), i2.start())
           .And(RefEqual(i1.end(), i2.end()))
           .And(RefBoth(i1, i2))
           .Or(RefLessEqual(i1.end(), i1.start())
                   .And(RefLessEqual(i2.end(), i2.start())));
     }},
};

// Every a+b with a <= b and both components in `components`.
std::vector<OngoingTimePoint> AllPoints(
    const std::vector<TimePoint>& components) {
  std::vector<OngoingTimePoint> points;
  for (TimePoint a : components) {
    for (TimePoint b : components) {
      if (a <= b) points.emplace_back(a, b);
    }
  }
  return points;
}

const std::vector<TimePoint> kIntervalComponents = {kMinInfinity, 0, 1, 2, 3,
                                                    kMaxInfinity};
const std::vector<TimePoint> kPointComponents = {
    kMinInfinity, 0, 1, 2, 3, kMaxInfinity - 1, kMaxInfinity};
const TimePoint kProbeTimes[] = {kMinInfinity, -1, 0, 1, 2, 3, 4,
                                 kMaxInfinity - 1};

// Counts mismatches and keeps the first one's description, so a broken
// kernel reports one line instead of hundreds of thousands.
struct Mismatches {
  size_t count = 0;
  std::string first;
  void Add(const std::string& what) {
    if (count++ == 0) first = what;
  }
};

TEST(OnePassPredicateTest, AllenPredicatesMatchComposedReference) {
  const std::vector<OngoingTimePoint> points = AllPoints(kIntervalComponents);
  std::vector<OngoingInterval> intervals;
  for (const OngoingTimePoint& s : points) {
    for (const OngoingTimePoint& e : points) intervals.emplace_back(s, e);
  }
  Mismatches st, bind, allocs;
  for (const OngoingInterval& i1 : intervals) {
    for (const OngoingInterval& i2 : intervals) {
      for (const IntervalPredicate& p : kAllenPredicates) {
        auto what = [&] {
          return std::string(p.name) + "(" + i1.ToString() + ", " +
                 i2.ToString() + ")";
        };
        AllocScope scope;
        const OngoingBoolean got = p.fn(i1, i2);
        if (scope.count() != 0) allocs.Add(what());
        if (got != p.ref(i1, i2)) st.Add(what() + " = " + got.ToString());
        for (TimePoint rt : kProbeTimes) {
          if (got.Instantiate(rt) !=
              p.fixed(i1.Instantiate(rt), i2.Instantiate(rt))) {
            bind.Add(what() + " at rt " + std::to_string(rt));
          }
        }
      }
    }
  }
  EXPECT_EQ(st.count, 0u) << st.first;
  EXPECT_EQ(bind.count, 0u) << bind.first;
  EXPECT_EQ(allocs.count, 0u) << "allocating call: " << allocs.first;
}

TEST(OnePassPredicateTest, ContainsMatchesComposedReference) {
  const std::vector<OngoingTimePoint> iv_points =
      AllPoints(kIntervalComponents);
  const std::vector<OngoingTimePoint> points = AllPoints(kPointComponents);
  Mismatches st, bind, allocs;
  for (const OngoingTimePoint& s : iv_points) {
    for (const OngoingTimePoint& e : iv_points) {
      const OngoingInterval iv(s, e);
      for (const OngoingTimePoint& t : points) {
        auto what = [&] {
          return "contains(" + iv.ToString() + ", " + t.ToString() + ")";
        };
        AllocScope scope;
        const OngoingBoolean got = Contains(iv, t);
        if (scope.count() != 0) allocs.Add(what());
        if (got != RefLessEqual(s, t).And(RefLess(t, e))) st.Add(what());
        for (TimePoint rt : kProbeTimes) {
          if (got.Instantiate(rt) !=
              ContainsF(iv.Instantiate(rt), t.Instantiate(rt))) {
            bind.Add(what() + " at rt " + std::to_string(rt));
          }
        }
      }
    }
  }
  EXPECT_EQ(st.count, 0u) << st.first;
  EXPECT_EQ(bind.count, 0u) << bind.first;
  EXPECT_EQ(allocs.count, 0u) << "allocating call: " << allocs.first;
}

TEST(OnePassPredicateTest, PointPredicatesMatchComposedReference) {
  const std::vector<OngoingTimePoint> points = AllPoints(kPointComponents);
  Mismatches st, bind, allocs;
  for (const OngoingTimePoint& x : points) {
    for (const OngoingTimePoint& y : points) {
      auto what = [&] {
        return "(" + x.ToString() + ", " + y.ToString() + ")";
      };
      AllocScope scope;
      const OngoingBoolean lt = Less(x, y);
      const OngoingBoolean le = LessEqual(x, y);
      const OngoingBoolean eq = Equal(x, y);
      if (scope.count() != 0) allocs.Add(what());
      if (lt != RefLess(x, y)) st.Add("less" + what());
      if (le != RefLessEqual(x, y)) st.Add("less_equal" + what());
      if (eq != RefEqual(x, y)) st.Add("equal" + what());
      for (TimePoint rt : kProbeTimes) {
        const TimePoint u = x.Instantiate(rt), v = y.Instantiate(rt);
        if (lt.Instantiate(rt) != (u < v) || le.Instantiate(rt) != (u <= v) ||
            eq.Instantiate(rt) != (u == v)) {
          bind.Add(what() + " at rt " + std::to_string(rt));
        }
      }
    }
  }
  EXPECT_EQ(st.count, 0u) << st.first;
  EXPECT_EQ(bind.count, 0u) << bind.first;
  EXPECT_EQ(allocs.count, 0u) << "allocating call: " << allocs.first;
}

}  // namespace
}  // namespace ongoingdb
