#include "core/interval_set.h"

#include <algorithm>
#include <cassert>

namespace ongoingdb {

bool IntervalSet::IsNormalized(const FixedInterval* intervals, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (intervals[i].empty()) return false;
    // Endpoints must stay within the time domain: an interval reaching
    // beyond the infinity sentinels has a well-ordered start/end pair but
    // denotes points outside T.
    if (intervals[i].start < kMinInfinity) return false;
    if (intervals[i].end > kMaxInfinity) return false;
    if (i > 0 && intervals[i - 1].end >= intervals[i].start) return false;
  }
  return true;
}

IntervalSet::IntervalSet(std::initializer_list<FixedInterval> intervals) {
  *this = FromUnsorted(std::vector<FixedInterval>(intervals));
}

IntervalSet IntervalSet::All() {
  IntervalSet result;
  result.intervals_.push_back({kMinInfinity, kMaxInfinity});
  return result;
}

IntervalSet IntervalSet::Empty() { return IntervalSet(); }

IntervalSet IntervalSet::Point(TimePoint t) {
  // {t, t+1} must stay inside the domain: +inf itself is not a member
  // of T, and a point at it would break the complement sweep.
  assert(t >= kMinInfinity && t < kMaxInfinity);
  IntervalSet result;
  result.intervals_.push_back({t, t + 1});
  return result;
}

IntervalSet IntervalSet::FromUnsorted(std::vector<FixedInterval> intervals) {
  std::erase_if(intervals, [](const FixedInterval& iv) { return iv.empty(); });
  std::sort(intervals.begin(), intervals.end(),
            [](const FixedInterval& x, const FixedInterval& y) {
              return x.start < y.start || (x.start == y.start && x.end < y.end);
            });
  IntervalSet result;
  auto& merged = result.intervals_;
  for (const FixedInterval& iv : intervals) {
    if (!merged.empty() && merged.back().end >= iv.start) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  assert(IsNormalized(merged.data(), merged.size()));
  return result;
}

IntervalSet IntervalSet::FromNormalized(const FixedInterval* intervals,
                                        size_t count) {
  assert(IsNormalized(intervals, count));
  IntervalSet result;
  result.intervals_.reserve(count);
  for (size_t i = 0; i < count; ++i) result.intervals_.push_back(intervals[i]);
  return result;
}

bool IntervalSet::IsAll() const {
  return intervals_.size() == 1 && intervals_[0].start <= kMinInfinity &&
         intervals_[0].end >= kMaxInfinity;
}

bool IntervalSet::Contains(TimePoint t) const {
  // Binary search over the sorted interval list.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](TimePoint v, const FixedInterval& iv) { return v < iv.start; });
  if (it == intervals_.begin()) return false;
  --it;
  return t < it->end;
}

void IntervalSet::IntersectInto(const IntervalSet& other,
                                IntervalSet* out) const {
  assert(out != this && out != &other);
  // Algorithm 1 of the paper: a single pass over both ascending interval
  // lists, appending the pairwise intersections.
  out->intervals_.clear();
  size_t i = 0, j = 0;
  const auto& a = intervals_;
  const auto& b = other.intervals_;
  while (i < a.size() && j < b.size()) {
    if (a[i].end <= b[j].start) {
      ++i;
    } else if (b[j].end <= a[i].start) {
      ++j;
    } else {
      out->intervals_.push_back({std::max(a[i].start, b[j].start),
                                 std::min(a[i].end, b[j].end)});
      if (a[i].end < b[j].end) {
        ++i;
      } else {
        ++j;
      }
    }
  }
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  IntervalSet result;
  IntersectInto(other, &result);
  return result;
}

void IntervalSet::UnionInto(const IntervalSet& other, IntervalSet* out) const {
  assert(out != this && out != &other);
  // Sweep-line merge of two ascending lists; coalesces overlapping and
  // adjacent intervals on the fly.
  out->intervals_.clear();
  size_t i = 0, j = 0;
  const auto& a = intervals_;
  const auto& b = other.intervals_;
  auto append = [out](const FixedInterval& iv) {
    auto& dst = out->intervals_;
    if (!dst.empty() && dst.back().end >= iv.start) {
      dst.back().end = std::max(dst.back().end, iv.end);
    } else {
      dst.push_back(iv);
    }
  };
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].start <= b[j].start)) {
      append(a[i++]);
    } else {
      append(b[j++]);
    }
  }
}

IntervalSet IntervalSet::Union(const IntervalSet& other) const {
  IntervalSet result;
  UnionInto(other, &result);
  return result;
}

IntervalSet IntervalSet::Complement() const {
  IntervalSet result;
  TimePoint cursor = kMinInfinity;
  for (const FixedInterval& iv : intervals_) {
    if (cursor < iv.start) {
      result.intervals_.push_back({cursor, iv.start});
    }
    cursor = iv.end;
  }
  if (cursor < kMaxInfinity) {
    result.intervals_.push_back({cursor, kMaxInfinity});
  }
  return result;
}

void IntervalSet::DifferenceInto(const IntervalSet& other,
                                 IntervalSet* out) const {
  assert(out != this && out != &other);
  // Direct sweep: for each interval of `this`, emit the sub-intervals not
  // covered by `other`. A single cursor walks `other` because both lists
  // ascend; an interval of `other` that reaches past the current interval
  // of `this` is kept for the next one.
  out->intervals_.clear();
  const auto& b = other.intervals_;
  size_t j = 0;
  for (const FixedInterval& iv : intervals_) {
    TimePoint cursor = iv.start;
    while (j < b.size() && b[j].end <= cursor) ++j;
    size_t k = j;
    while (k < b.size() && b[k].start < iv.end) {
      if (b[k].start > cursor) {
        out->intervals_.push_back({cursor, b[k].start});
      }
      if (b[k].end > cursor) cursor = b[k].end;
      if (b[k].end > iv.end) break;
      ++k;
    }
    if (cursor < iv.end) {
      out->intervals_.push_back({cursor, iv.end});
    }
    j = k;
  }
}

IntervalSet IntervalSet::Difference(const IntervalSet& other) const {
  IntervalSet result;
  DifferenceInto(other, &result);
  return result;
}

bool IntervalSet::Intersects(const IntervalSet& other) const {
  size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    if (intervals_[i].end <= other.intervals_[j].start) {
      ++i;
    } else if (other.intervals_[j].end <= intervals_[i].start) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

int64_t IntervalSet::CountPoints() const {
  int64_t total = 0;
  for (const FixedInterval& iv : intervals_) {
    if (!IsFinite(iv.start) || !IsFinite(iv.end)) return kMaxInfinity;
    total += iv.end - iv.start;
  }
  return total;
}

std::string IntervalSet::ToString() const {
  std::string s = "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) s += ", ";
    const FixedInterval& iv = intervals_[i];
    if (iv.start <= kMinInfinity && iv.end >= kMaxInfinity) {
      s += "(-inf, +inf)";
    } else if (iv.start <= kMinInfinity) {
      s += "(-inf, " + FormatTimePoint(iv.end) + ")";
    } else {
      s += FormatFixedInterval(iv);
    }
  }
  s += "}";
  return s;
}

}  // namespace ongoingdb
