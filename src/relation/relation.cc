#include "relation/relation.h"

#include <algorithm>
#include <map>

#include "util/table_printer.h"

namespace ongoingdb {

uint64_t ModificationLog::Append(Modification::Kind kind, Tuple tuple) {
  const uint64_t seq = next_seq_++;
  entries_.push_back(Modification{seq, kind, std::move(tuple)});
  if (entries_.size() > capacity_) {
    entries_.pop_front();
    first_available_ = entries_.front().seq;
  }
  return seq;
}

bool ModificationLog::EntriesSince(
    uint64_t since, std::vector<const Modification*>* out) const {
  if (since < first_available_) return false;
  if (entries_.empty() || since >= next_seq_) return true;
  // Sequence numbers are dense, so the requested entries are the suffix
  // starting at offset since - front.seq.
  const size_t offset =
      since <= entries_.front().seq
          ? 0
          : static_cast<size_t>(since - entries_.front().seq);
  for (size_t i = offset; i < entries_.size(); ++i) {
    out->push_back(&entries_[i]);
  }
  return true;
}

Status OngoingRelation::ValidateValues(
    const std::vector<Value>& values) const {
  if (values.size() != schema_.num_attributes()) {
    return Status::SchemaMismatch(
        "expected " + std::to_string(schema_.num_attributes()) +
        " values, got " + std::to_string(values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].type() != schema_.attribute(i).type) {
      return Status::TypeError(
          "attribute '" + schema_.attribute(i).name + "' expects " +
          ValueTypeToString(schema_.attribute(i).type) + ", got " +
          ValueTypeToString(values[i].type()));
    }
  }
  return Status::OK();
}

Status OngoingRelation::Insert(std::vector<Value> values) {
  ONGOINGDB_RETURN_NOT_OK(ValidateValues(values));
  AppendUnchecked(Tuple(std::move(values)));
  return Status::OK();
}

Status OngoingRelation::InsertWithRt(std::vector<Value> values,
                                     IntervalSet rt) {
  ONGOINGDB_RETURN_NOT_OK(ValidateValues(values));
  if (rt.IsEmpty()) {
    return Status::InvalidArgument(
        "tuple with empty reference time belongs to no instantiated "
        "relation");
  }
  AppendUnchecked(Tuple(std::move(values), std::move(rt)));
  return Status::OK();
}

void OngoingRelation::AppendUnchecked(Tuple tuple) {
  if (tuple.rt().IsEmpty()) return;
  if (log_ != nullptr) log_->Append(Modification::Kind::kInsert, tuple);
  tuples_.push_back(std::move(tuple));
}

void OngoingRelation::SwapRemove(size_t i) {
  if (log_ != nullptr) {
    log_->Append(Modification::Kind::kRemove, tuples_[i]);
  }
  EditTuples().SwapRemove(i);
}

void OngoingRelation::EnableModificationLog(size_t capacity) {
  if (log_ == nullptr) {
    log_ = std::make_shared<ModificationLog>(capacity);
  }
}

IntervalSet OngoingRelation::CoveredReferenceTimes() const {
  IntervalSet covered;
  for (const Tuple& t : tuples_) {
    covered = covered.Union(t.rt());
  }
  return covered;
}

std::string OngoingRelation::ToString(size_t max_rows) const {
  TablePrinter printer;
  std::vector<std::string> header;
  for (const Attribute& attr : schema_.attributes()) {
    header.push_back(attr.name);
  }
  header.push_back("RT");
  printer.SetHeader(std::move(header));
  size_t shown = 0;
  for (const Tuple& t : tuples_) {
    if (shown++ >= max_rows) break;
    std::vector<std::string> row;
    for (const Value& v : t.values()) row.push_back(v.ToString());
    row.push_back(t.rt().ToString());
    printer.AddRow(std::move(row));
  }
  std::ostringstream os;
  printer.Print(os);
  if (tuples_.size() > max_rows) {
    os << "... (" << tuples_.size() - max_rows << " more rows)\n";
  }
  return os.str();
}

OngoingRelation InstantiateRelation(const OngoingRelation& r, TimePoint rt) {
  OngoingRelation result(r.schema().Instantiated());
  result.Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    if (!t.BelongsAt(rt)) continue;
    result.AppendUnchecked(Tuple(t.InstantiateValues(rt)));
  }
  return result;
}

bool InstantiatedRelationsEqual(const OngoingRelation& a,
                                const OngoingRelation& b) {
  auto key = [](const Tuple& t) {
    std::string k;
    for (const Value& v : t.values()) {
      k += ValueTypeToString(v.type());
      k += ':';
      k += v.ToString();
      k += '|';
    }
    return k;
  };
  std::map<std::string, int> counts;
  for (const Tuple& t : a.tuples()) counts[key(t)] = 1;
  std::map<std::string, int> counts_b;
  for (const Tuple& t : b.tuples()) counts_b[key(t)] = 1;
  return counts == counts_b;
}

}  // namespace ongoingdb
