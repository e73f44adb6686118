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
  // The rebuild below replaces *r wholesale; carry the modification log
  // across the replacement and log the precise close deltas here (the
  // rebuilt relation has no log, so the pass-through appends stay silent).
  std::shared_ptr<ModificationLog> log = r->SharedModificationLog();
  OngoingRelation updated(r->schema());
  updated.Reserve(r->size());
  size_t modified = 0;
  for (const Tuple& t : r->tuples()) {
    if (!filter(t)) {
      updated.AppendUnchecked(t);
      continue;
    }
    ++modified;
    if (log != nullptr) log->Append(Modification::Kind::kRemove, t);
    OngoingInterval closed =
        CloseAt(t.value(vt_index).AsOngoingInterval(), tc);
    if (closed.IsAlwaysEmpty()) continue;  // never valid: remove entirely
    std::vector<Value> values = t.values();
    values[vt_index] = Value::Ongoing(closed);
    Tuple replacement(std::move(values), t.rt());
    if (log != nullptr) {
      log->Append(Modification::Kind::kInsert, replacement);
    }
    updated.AppendUnchecked(std::move(replacement));
  }
  *r = std::move(updated);
  r->AttachModificationLog(std::move(log));
  return modified;
}

Result<size_t> TemporalUpdate(
    OngoingRelation* r, size_t vt_index, TimePoint tc,
    const ModificationFilter& filter,
    const std::function<std::vector<Value>(const Tuple&)>& updater) {
  ONGOINGDB_RETURN_NOT_OK(CheckVtIndex(*r, vt_index));
  // Same log carry-over as TemporalDelete: an update is a close of the
  // old version plus an insert of the new one, logged per matched tuple.
  // The entries wait in `deltas` until every updater row has validated,
  // so a bad row leaves the log as untouched as *r.
  std::shared_ptr<ModificationLog> log = r->SharedModificationLog();
  std::vector<std::pair<Modification::Kind, Tuple>> deltas;
  OngoingRelation updated(r->schema());
  updated.Reserve(r->size() + 1);  // a one-row update adds one tuple
  size_t modified = 0;
  for (const Tuple& t : r->tuples()) {
    if (!filter(t)) {
      updated.AppendUnchecked(t);
      continue;
    }
    std::vector<Value> new_values = updater(t);
    ONGOINGDB_RETURN_NOT_OK(r->ValidateValues(new_values));
    ++modified;
    if (log != nullptr) deltas.emplace_back(Modification::Kind::kRemove, t);
    // Close the old version at tc.
    OngoingInterval closed =
        CloseAt(t.value(vt_index).AsOngoingInterval(), tc);
    if (!closed.IsAlwaysEmpty()) {
      std::vector<Value> old_values = t.values();
      old_values[vt_index] = Value::Ongoing(closed);
      Tuple closed_old(std::move(old_values), t.rt());
      if (log != nullptr) {
        deltas.emplace_back(Modification::Kind::kInsert, closed_old);
      }
      updated.AppendUnchecked(std::move(closed_old));
    }
    // The new version is valid from tc on.
    new_values[vt_index] = Value::Ongoing(OngoingInterval(
        OngoingTimePoint::Fixed(tc), OngoingTimePoint::Now()));
    Tuple new_version(std::move(new_values), t.rt());
    if (log != nullptr) {
      deltas.emplace_back(Modification::Kind::kInsert, new_version);
    }
    updated.AppendUnchecked(std::move(new_version));
  }
  for (auto& [kind, tuple] : deltas) log->Append(kind, std::move(tuple));
  *r = std::move(updated);
  r->AttachModificationLog(std::move(log));
  return modified;
}

}  // namespace ongoingdb
