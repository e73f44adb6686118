#include "query/interval_index.h"

#include <algorithm>

#include "storage/stats.h"

namespace ongoingdb {

namespace {

inline uint64_t MixBound(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

Result<size_t> ValidateIntervalColumn(const OngoingRelation& r,
                                      size_t column_index) {
  if (column_index >= r.schema().num_attributes()) {
    return Status::InvalidArgument("interval column ordinal out of range");
  }
  ValueType type = r.schema().attribute(column_index).type;
  if (type != ValueType::kOngoingInterval &&
      type != ValueType::kFixedInterval) {
    return Status::TypeError("interval index requires an interval attribute");
  }
  return column_index;
}

}  // namespace

Result<uint64_t> IntervalIndex::ColumnFingerprint(const OngoingRelation& r,
                                                  size_t column_index) {
  ONGOINGDB_ASSIGN_OR_RETURN(size_t idx,
                             ValidateIntervalColumn(r, column_index));
  uint64_t h = MixBound(r.size(), idx);
  for (const Tuple& t : r.tuples()) {
    const IntervalBounds b = IntervalBoundsOfValue(t.value(idx));
    h = MixBound(h, static_cast<uint64_t>(b.min_start));
    h = MixBound(h, static_cast<uint64_t>(b.max_start));
    h = MixBound(h, static_cast<uint64_t>(b.min_end));
    h = MixBound(h, static_cast<uint64_t>(b.max_end));
  }
  return h;
}

Result<IntervalIndex> IntervalIndex::Build(const OngoingRelation& r,
                                           const std::string& column) {
  ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, r.schema().IndexOf(column));
  ONGOINGDB_ASSIGN_OR_RETURN(idx, ValidateIntervalColumn(r, idx));
  IntervalIndex index;
  index.column_index_ = idx;
  index.entries_.reserve(r.size());
  // The fingerprint folds into the build loop (same mixing order as
  // ColumnFingerprint, which Ensure() compares against later): one pass
  // over the column instead of two.
  uint64_t h = MixBound(r.size(), idx);
  size_t i = 0;
  for (const Tuple& t : r.tuples()) {
    const IntervalBounds b = IntervalBoundsOfValue(t.value(idx));
    const Entry e{b.min_start, b.max_start, b.min_end, b.max_end, i};
    h = MixBound(h, static_cast<uint64_t>(e.min_start));
    h = MixBound(h, static_cast<uint64_t>(e.max_start));
    h = MixBound(h, static_cast<uint64_t>(e.min_end));
    h = MixBound(h, static_cast<uint64_t>(e.max_end));
    index.entries_.push_back(e);
    ++i;
  }
  index.fingerprint_ = h;
  std::sort(index.entries_.begin(), index.entries_.end(),
            [](const Entry& x, const Entry& y) {
              return x.min_start < y.min_start;
            });
  index.by_max_start_.resize(index.entries_.size());
  for (uint32_t i = 0; i < index.by_max_start_.size(); ++i) {
    index.by_max_start_[i] = i;
  }
  std::sort(index.by_max_start_.begin(), index.by_max_start_.end(),
            [&index](uint32_t a, uint32_t b) {
              return index.entries_[a].max_start < index.entries_[b].max_start;
            });
  return index;
}

Status IntervalIndex::ApplyInsert(const Tuple& tuple, size_t tuple_index) {
  if (column_index_ >= tuple.num_values()) {
    return Status::InvalidArgument(
        "tuple is too narrow for the indexed column");
  }
  const IntervalBounds b = IntervalBoundsOfValue(tuple.value(column_index_));
  const Entry e{b.min_start, b.max_start, b.min_end, b.max_end, tuple_index};
  const auto pos_it = std::upper_bound(
      entries_.begin(), entries_.end(), e.min_start,
      [](TimePoint v_, const Entry& x) { return v_ < x.min_start; });
  const uint32_t p = static_cast<uint32_t>(pos_it - entries_.begin());
  entries_.insert(pos_it, e);
  // Positions at or past the insertion point shifted up by one; the
  // relative max_start order of the survivors is unchanged.
  for (uint32_t& pos : by_max_start_) {
    if (pos >= p) ++pos;
  }
  const auto by_it = std::upper_bound(
      by_max_start_.begin(), by_max_start_.end(), e.max_start,
      [this](TimePoint v_, uint32_t pos) {
        return v_ < entries_[pos].max_start;
      });
  by_max_start_.insert(by_it, p);
  fingerprint_current_ = false;
  return Status::OK();
}

Status IntervalIndex::ApplyRemove(size_t tuple_index, size_t moved_from) {
  size_t p = entries_.size();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].tuple_index == tuple_index) {
      p = i;
      break;
    }
  }
  if (p == entries_.size()) {
    return Status::InvalidArgument("no index entry for the removed tuple");
  }
  if (moved_from != kNoMove && moved_from != tuple_index) {
    size_t moved_pos = entries_.size();
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].tuple_index == moved_from) {
        moved_pos = i;
        break;
      }
    }
    if (moved_pos == entries_.size()) {
      return Status::InvalidArgument("no index entry for the relocated tuple");
    }
    entries_[moved_pos].tuple_index = tuple_index;
  }
  for (size_t i = 0; i < by_max_start_.size(); ++i) {
    if (by_max_start_[i] == p) {
      by_max_start_.erase(by_max_start_.begin() +
                          static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  for (uint32_t& pos : by_max_start_) {
    if (pos > p) --pos;
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(p));
  fingerprint_current_ = false;
  return Status::OK();
}

// Every probe below returns a superset of the tuples that satisfy the
// exact predicate at some reference time, for any probe instantiation
// inside the probe's bounds. The derivations pick, per op, the loosest
// bound each side can reach:
//
//   kOverlaps  exact: s_e < e_p ^ s_p < e_e (+ both non-empty)
//              => min_start < P.max_end  ^  max_end > P.min_start
//   kBefore    exact: e_e <= s_p ^ entry non-empty
//              => min_end <= P.max_start (and min_start <= P.max_start,
//                 keeping the degenerate min_start == min_end ==
//                 P.max_start candidates — the PR 4 stop-bound rule)
//   kAfter     exact: e_p <= s_e ^ entry non-empty
//              => max_start >= P.min_end  ^  max_end > P.min_end
//   kMeets     exact: e_e = s_p ^ both non-empty
//              => min_end <= P.max_start ^ max_end >= P.min_start
//                 ^ min_start < P.max_start
//   kMetBy     exact: e_p = s_e ^ both non-empty
//              => min_start <= P.max_end ^ max_start >= P.min_end
//                 ^ max_end > P.min_end
//
// The min_start conditions are prefixes of the sorted entry list (binary
// search / early break); kAfter's max_start condition is a suffix of the
// secondary by_max_start_ order.
void IntervalIndex::CandidatesInto(IntervalProbeOp op,
                                   const IntervalBounds& probe,
                                   std::vector<size_t>* out) const {
  out->clear();
  switch (op) {
    case IntervalProbeOp::kOverlaps: {
      auto end_it = std::lower_bound(
          entries_.begin(), entries_.end(), probe.max_end,
          [](const Entry& e, TimePoint v) { return e.min_start < v; });
      for (auto it = entries_.begin(); it != end_it; ++it) {
        if (it->max_end > probe.min_start) out->push_back(it->tuple_index);
      }
      return;
    }
    case IntervalProbeOp::kBefore: {
      for (const Entry& e : entries_) {
        if (e.min_start > probe.max_start) break;  // sorted by min_start
        if (e.min_end <= probe.max_start) out->push_back(e.tuple_index);
      }
      return;
    }
    case IntervalProbeOp::kAfter: {
      auto begin_it = std::lower_bound(
          by_max_start_.begin(), by_max_start_.end(), probe.min_end,
          [this](uint32_t pos, TimePoint v) {
            return entries_[pos].max_start < v;
          });
      for (auto it = begin_it; it != by_max_start_.end(); ++it) {
        const Entry& e = entries_[*it];
        if (e.max_end > probe.min_end) out->push_back(e.tuple_index);
      }
      return;
    }
    case IntervalProbeOp::kMeets: {
      for (const Entry& e : entries_) {
        if (e.min_start >= probe.max_start) break;
        if (e.min_end <= probe.max_start && e.max_end >= probe.min_start) {
          out->push_back(e.tuple_index);
        }
      }
      return;
    }
    case IntervalProbeOp::kMetBy: {
      for (const Entry& e : entries_) {
        if (e.min_start > probe.max_end) break;
        if (e.max_start >= probe.min_end && e.max_end > probe.min_end) {
          out->push_back(e.tuple_index);
        }
      }
      return;
    }
  }
}

}  // namespace ongoingdb
