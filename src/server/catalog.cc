#include "server/catalog.h"

#include <algorithm>

#include "util/failpoint.h"

namespace ongoingdb {
namespace server {

namespace {

// The mid-commit fault seam: planted after the table lookup, before the
// copy + modify + publish sequence. A triggered failure aborts the
// commit with nothing published — the half-visible write the
// fault-injection suite proves impossible.
Failpoint& fp_catalog_commit = Failpoint::GetOrCreate("catalog.commit");

// The copy a write modifies. It leaves room for one more row: a bare
// copy is sized exactly, so an INSERT's append would double the array
// that the published version then keeps for as long as the ring does.
OngoingRelation CopyVersion(const OngoingRelation& current) {
  std::vector<Tuple> tuples;
  tuples.reserve(current.size() + 1);
  tuples.insert(tuples.end(), current.tuples().begin(), current.tuples().end());
  return OngoingRelation(current.schema(), std::move(tuples));
}

}  // namespace

// --- Snapshot ---------------------------------------------------------------

Result<std::shared_ptr<const OngoingRelation>> Snapshot::Get(
    const std::string& name) const {
  auto it = state_->tables.find(name);
  if (it == state_->tables.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return it->second.current().data;
}

Result<std::shared_ptr<const OngoingRelation>> Snapshot::GetAsOf(
    const std::string& name, uint64_t seq) const {
  auto it = state_->tables.find(name);
  if (it == state_->tables.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  const std::vector<TableVersion>& recent = it->second.recent;
  // Newest version with commit_seq <= seq (ring is ordered oldest
  // first). Walk backwards; rings are short by construction.
  for (auto rit = recent.rbegin(); rit != recent.rend(); ++rit) {
    if (rit->commit_seq <= seq) return rit->data;
  }
  return Status::OutOfRange(
      "commit sequence " + std::to_string(seq) + " predates the " +
      std::to_string(recent.size()) + " retained version(s) of '" + name + "'");
}

std::vector<std::string> Snapshot::Names() const {
  std::vector<std::string> names;
  names.reserve(state_->tables.size());
  for (const auto& [name, _] : state_->tables) names.push_back(name);
  return names;
}

sql::Catalog Snapshot::View() const {
  sql::Catalog view;
  for (const auto& [name, table] : state_->tables) {
    view.RegisterShared(name, table.current().data);
  }
  return view;
}

// --- Catalog ----------------------------------------------------------------

Catalog::Catalog(size_t version_ring_cap)
    : version_ring_cap_(std::max<size_t>(1, version_ring_cap)),
      state_(std::make_shared<const CatalogState>()) {}

uint64_t Catalog::Publish(const std::string& name,
                          std::shared_ptr<const OngoingRelation> data) {
  auto next = std::make_shared<CatalogState>(*state_.Load());
  const uint64_t seq = ++next->commit_seq;
  std::vector<TableVersion>& recent = next->tables[name].recent;
  recent.push_back(TableVersion{seq, std::move(data)});
  if (recent.size() > version_ring_cap_) recent.erase(recent.begin());
  state_.Store(std::move(next));
  return seq;
}

Result<uint64_t> Catalog::CreateTable(const std::string& name,
                                      Schema schema) {
  return RegisterTable(name, OngoingRelation(std::move(schema)));
}

Result<uint64_t> Catalog::RegisterTable(const std::string& name,
                                        const OngoingRelation& data) {
  auto version = std::make_shared<const OngoingRelation>(data);
  MutexLock lock(mu_);
  if (state_.Load()->tables.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  ONGOINGDB_FAILPOINT(fp_catalog_commit);
  return Publish(name, std::move(version));
}

Result<uint64_t> Catalog::Commit(
    const std::string& name,
    const std::function<Status(OngoingRelation*)>& modify) {
  MutexLock lock(mu_);
  ONGOINGDB_ASSIGN_OR_RETURN(std::shared_ptr<const OngoingRelation> current,
                             PinSnapshot().Get(name));
  ONGOINGDB_FAILPOINT(fp_catalog_commit);
  OngoingRelation next = CopyVersion(*current);
  ONGOINGDB_RETURN_NOT_OK(modify(&next));
  return Publish(name,
                 std::make_shared<const OngoingRelation>(std::move(next)));
}

Result<uint64_t> Catalog::Insert(const std::string& name,
                                 std::vector<Value> values) {
  return Commit(name, [&values](OngoingRelation* r) {
    return r->Insert(std::move(values));
  });
}

Result<uint64_t> Catalog::TemporalDeleteWhere(const std::string& name,
                                              TimePoint tc,
                                              const ModificationFilter& filter,
                                              size_t* deleted) {
  return Commit(name, [&](OngoingRelation* r) -> Status {
    ONGOINGDB_ASSIGN_OR_RETURN(size_t vt, VtIndexOf(r->schema()));
    ONGOINGDB_ASSIGN_OR_RETURN(size_t count, TemporalDelete(r, vt, tc, filter));
    if (deleted != nullptr) *deleted = count;
    return Status::OK();
  });
}

Result<uint64_t> Catalog::TemporalUpdateWhere(
    const std::string& name, TimePoint tc, const ModificationFilter& filter,
    const std::function<std::vector<Value>(const Tuple&)>& updater,
    size_t* updated) {
  return Commit(name, [&](OngoingRelation* r) -> Status {
    ONGOINGDB_ASSIGN_OR_RETURN(size_t vt, VtIndexOf(r->schema()));
    ONGOINGDB_ASSIGN_OR_RETURN(size_t count,
                               TemporalUpdate(r, vt, tc, filter, updater));
    if (updated != nullptr) *updated = count;
    return Status::OK();
  });
}

Result<size_t> Catalog::MasterVersionCount(const std::string& name) const {
  ONGOINGDB_ASSIGN_OR_RETURN(std::shared_ptr<const OngoingRelation> current,
                             PinSnapshot().Get(name));
  return current->size();
}

}  // namespace server
}  // namespace ongoingdb
