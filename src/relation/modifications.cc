#include "relation/modifications.h"

#include "core/operations.h"

namespace ongoingdb {

namespace {

Status CheckVtIndex(const OngoingRelation& r, size_t vt_index) {
  if (vt_index >= r.schema().num_attributes()) {
    return Status::OutOfRange("valid-time attribute index out of range");
  }
  if (r.schema().attribute(vt_index).type != ValueType::kOngoingInterval) {
    return Status::TypeError(
        "temporal modifications require an ongoing interval valid-time "
        "attribute");
  }
  return Status::OK();
}

// end := min(end, tc), the Torp deletion semantics.
OngoingInterval CloseAt(const OngoingInterval& vt, TimePoint tc) {
  return OngoingInterval(vt.start(),
                         Min(vt.end(), OngoingTimePoint::Fixed(tc)));
}

// A tuple a modification applies to: its position and its valid time
// closed at tc.
struct Match {
  size_t pos;
  OngoingInterval closed;
};

// A modification's first pass, which changes nothing: the tuples
// `filter` matches whose valid time closing at tc changes, in position
// order. A tuple already closed at or before tc (an earlier DELETE or
// UPDATE, or a fixed end no later than tc) is left alone: it is not
// counted, logged, copied or re-versioned. The filter's first error
// fails the modification. The walk goes chunk by chunk, and a full
// chunk the filter's chunk test rules out is passed over whole; the
// tail has no synopsis and is always tested.
Result<std::vector<Match>> MatchAndClose(const OngoingRelation& r,
                                         size_t vt_index, TimePoint tc,
                                         const ModificationFilter& filter) {
  std::vector<Match> matches;
  const TupleStore& store = r.tuples();
  const ModificationFilter::ChunkTest& rules_out = filter.chunk_test();
  const size_t full = store.num_full_chunks();
  size_t pos = 0;
  for (size_t c = 0; c <= full; ++c) {
    const std::span<const Tuple> chunk = store.chunk(c);
    if (c < full && rules_out && rules_out(store.synopsis(c))) {
      pos += chunk.size();
      continue;
    }
    for (const Tuple& t : chunk) {
      ONGOINGDB_ASSIGN_OR_RETURN(bool match, filter(t));
      if (match) {
        const OngoingInterval& vt = t.value(vt_index).AsOngoingInterval();
        OngoingInterval closed = CloseAt(vt, tc);
        if (closed != vt) matches.push_back({pos, closed});
      }
      ++pos;
    }
  }
  return matches;
}

// Closes every match in place and logs each matched tuple's removal
// and, unless its closed valid time is always empty, the insertion of
// the closed tuple. The always-empty ones are swap-removed last,
// visiting positions from the end, so every swap moves a tuple this
// modification keeps.
void CloseInPlace(OngoingRelation* r, size_t vt_index,
                  const std::vector<Match>& matches) {
  ModificationLog* log = r->modification_log();
  TupleStore::Edit edit = r->EditTuples();
  std::vector<size_t> never_valid;
  for (const Match& m : matches) {
    if (log != nullptr) {
      log->Append(Modification::Kind::kRemove, r->tuple(m.pos));
    }
    if (m.closed.IsAlwaysEmpty()) {
      never_valid.push_back(m.pos);
      continue;
    }
    Tuple& t = edit.Mutable(m.pos);
    t.mutable_values()[vt_index] = Value::Ongoing(m.closed);
    if (log != nullptr) log->Append(Modification::Kind::kInsert, t);
  }
  for (auto it = never_valid.rbegin(); it != never_valid.rend(); ++it) {
    edit.SwapRemove(*it);
  }
}

}  // namespace

Result<size_t> VtIndexOf(const Schema& schema) {
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (schema.attribute(i).type == ValueType::kOngoingInterval) return i;
  }
  return Status::InvalidArgument(
      "temporal modification requires a PERIOD (ongoing interval) column");
}

Status TemporalInsert(OngoingRelation* r, std::vector<Value> values,
                      size_t vt_index, TimePoint tc) {
  ONGOINGDB_RETURN_NOT_OK(CheckVtIndex(*r, vt_index));
  if (vt_index >= values.size()) {
    return Status::OutOfRange("valid-time index exceeds value count");
  }
  values[vt_index] = Value::Ongoing(OngoingInterval(
      OngoingTimePoint::Fixed(tc), OngoingTimePoint::Now()));
  return r->Insert(std::move(values));
}

Result<size_t> TemporalDelete(OngoingRelation* r, size_t vt_index,
                              TimePoint tc,
                              const ModificationFilter& filter) {
  ONGOINGDB_RETURN_NOT_OK(CheckVtIndex(*r, vt_index));
  ONGOINGDB_ASSIGN_OR_RETURN(std::vector<Match> matches,
                             MatchAndClose(*r, vt_index, tc, filter));
  CloseInPlace(r, vt_index, matches);
  return matches.size();
}

Result<size_t> TemporalUpdate(
    OngoingRelation* r, size_t vt_index, TimePoint tc,
    const ModificationFilter& filter,
    const std::function<std::vector<Value>(const Tuple&)>& updater) {
  ONGOINGDB_RETURN_NOT_OK(CheckVtIndex(*r, vt_index));
  ONGOINGDB_ASSIGN_OR_RETURN(std::vector<Match> matches,
                             MatchAndClose(*r, vt_index, tc, filter));
  // Every updater row validates before anything changes, so a bad row
  // leaves *r and its log untouched.
  std::vector<Tuple> new_versions;
  new_versions.reserve(matches.size());
  for (const Match& m : matches) {
    const Tuple& old = r->tuple(m.pos);
    std::vector<Value> values = updater(old);
    ONGOINGDB_RETURN_NOT_OK(r->ValidateValues(values));
    // The new version is valid from tc on.
    values[vt_index] = Value::Ongoing(OngoingInterval(
        OngoingTimePoint::Fixed(tc), OngoingTimePoint::Now()));
    new_versions.emplace_back(std::move(values), old.rt());
  }
  CloseInPlace(r, vt_index, matches);
  for (Tuple& t : new_versions) r->AppendUnchecked(std::move(t));
  return matches.size();
}

}  // namespace ongoingdb
