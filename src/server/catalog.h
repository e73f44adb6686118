// The serving catalog: a thread-safe registry of named ongoing
// relations with MVCC snapshot isolation over transaction time.
//
// Storage model. Each table's only store is its ring of published,
// immutable versions. A write copies the table's current version under
// the catalog's single writer mutex, applies the plain Torp
// modification (relation/modifications.h) to the copy, and publishes
// the copy as the next version. Only the copy is ever touched, so a
// failed write publishes nothing. Versions share their unchanged tuple
// chunks (relation/tuple_store.h): the copy costs O(n / 256 + 256) for
// n rows, and the modification copies only the chunks it writes.
//
// Publication protocol (RCU over util/published_ptr.h). The published
// unit is a CatalogState: the commit sequence plus, per table, a short
// ring of recent versions whose newest entry is the current one. A
// commit builds the next state completely off to the side and installs
// it with one pointer swap; a reader pins the state by copying that
// pointer. Both take PublishedPtr's lock, which guards only the pointer.
// Consequences:
//
//  * readers never wait for a commit's copy or modification and never
//    observe a half-applied commit — visibility is all-or-nothing at the
//    pointer swap (the epoch bump);
//  * a snapshot pinned before a commit keeps resolving the exact
//    pre-commit versions for as long as it is held (shared_ptr keeps
//    superseded states alive until the last reader lets go);
//  * writers never wait for readers.
//
// Snapshot visibility rule. A snapshot pinned at commit sequence S sees,
// for each table, the version published at the greatest sequence <= S.
// Time travel (GetAsOf) applies the same rule to the retained ring and
// answers OutOfRange below it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relation/modifications.h"
#include "relation/relation.h"
#include "sql/catalog.h"
#include "util/mutex.h"
#include "util/published_ptr.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace ongoingdb {
namespace server {

/// One published, immutable table version.
struct TableVersion {
  /// The commit sequence this version was published at.
  uint64_t commit_seq = 0;
  /// The current-state materialization at that sequence.
  std::shared_ptr<const OngoingRelation> data;
};

/// The published versions of one table: `recent` is a ring of the last
/// few versions (oldest first, newest last == current). Copied by value
/// into each new CatalogState; entries are shared_ptr-cheap.
struct PublishedTable {
  std::vector<TableVersion> recent;

  const TableVersion& current() const { return recent.back(); }
};

/// One immutable epoch of the catalog. Built off to the side by the
/// committing writer, published atomically, pinned by readers.
struct CatalogState {
  /// The last committed sequence number visible in this state.
  uint64_t commit_seq = 0;
  std::map<std::string, PublishedTable> tables;
};

/// A pinned, immutable view of the catalog at one commit sequence.
/// Cheap to copy; keeps every relation it can resolve alive. Safe to
/// use from any thread without synchronization.
class Snapshot {
 public:
  Snapshot() : state_(std::make_shared<const CatalogState>()) {}
  explicit Snapshot(std::shared_ptr<const CatalogState> state)
      : state_(std::move(state)) {}

  /// The commit sequence this snapshot observes.
  uint64_t commit_seq() const { return state_->commit_seq; }

  /// The table's current version at this snapshot. The relation is
  /// immutable; plans scan it in place while the returned shared_ptr
  /// (or this snapshot) is held.
  Result<std::shared_ptr<const OngoingRelation>> Get(
      const std::string& name) const;

  /// Time travel within the retained version ring: the table as of
  /// commit sequence `seq` (the greatest published version <= seq).
  /// Fails with OutOfRange when `seq` predates the ring: older versions
  /// are not kept.
  Result<std::shared_ptr<const OngoingRelation>> GetAsOf(
      const std::string& name, uint64_t seq) const;

  std::vector<std::string> Names() const;

  /// A sql::Catalog of read-only views over every table at this
  /// snapshot — the FROM-clause namespace for parsing and executing
  /// statements against the snapshot. The returned catalog shares
  /// ownership of the pinned versions, so it stays valid even if the
  /// snapshot itself is dropped.
  sql::Catalog View() const;

 private:
  std::shared_ptr<const CatalogState> state_;
};

/// The thread-safe serving catalog. Any number of concurrent reader
/// threads may pin snapshots while one writer at a time commits.
class Catalog {
 public:
  /// `version_ring_cap` bounds how many superseded versions each table
  /// retains for lock-free time travel (>= 1; the current version
  /// always counts as one).
  explicit Catalog(size_t version_ring_cap = 8);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // --- read path -----------------------------------------------------------

  /// Pins the current published state: one pointer copy under the
  /// publication lock, never behind a commit's work.
  Snapshot PinSnapshot() const { return Snapshot(state_.Load()); }

  /// The last committed sequence number currently published.
  uint64_t commit_seq() const { return state_.Load()->commit_seq; }

  // --- write path (serialized on the commit lock) -------------------------
  // Each write copies the table's current version (sharing its full
  // chunks), applies the modification to the copy in place, and
  // publishes the next CatalogState, so a commit costs O(delta) plus a
  // DELETE's or UPDATE's filter scan. On any failure — including the
  // `catalog.commit` failpoint — nothing is published: a reader can
  // never observe a half-applied write, and a failed commit consumes no
  // sequence number. All return the commit sequence they published. A
  // DELETE or UPDATE that changes no row publishes nothing either, and
  // returns the sequence of the state it read: the catalog's last
  // committed sequence, at which the table already looks as it would
  // have after the write.

  /// Creates an empty table. Fails if the name exists.
  Result<uint64_t> CreateTable(const std::string& name, Schema schema);

  /// Bulk-registers an existing relation as a table whose tuples are all
  /// inserted at the returned commit sequence (test/bench/bootstrap
  /// loading). Every row is validated as Insert validates it (arity,
  /// types, no NULL), since the relation may have been built with
  /// AppendUnchecked. Fails, publishing nothing, on a bad row or if the
  /// name exists.
  Result<uint64_t> RegisterTable(const std::string& name,
                                 const OngoingRelation& data);

  /// Inserts one row (values as given, trivial RT).
  Result<uint64_t> Insert(const std::string& name, std::vector<Value> values);

  /// Torp valid-time DELETE at commit time `tc` of the rows matching
  /// `filter`. `*deleted` (optional) receives the modified-row count.
  Result<uint64_t> TemporalDeleteWhere(const std::string& name, TimePoint tc,
                                       const ModificationFilter& filter,
                                       size_t* deleted = nullptr);

  /// Torp valid-time UPDATE at commit time `tc`: rows matching `filter`
  /// are closed and re-inserted with `updater`'s values.
  Result<uint64_t> TemporalUpdateWhere(
      const std::string& name, TimePoint tc, const ModificationFilter& filter,
      const std::function<std::vector<Value>(const Tuple&)>& updater,
      size_t* updated = nullptr);

  // --- diagnostics --------------------------------------------------------

  /// The row count of `name`'s current version, which the benchmark
  /// samples as `server.master_versions`. Lock-free.
  Result<size_t> MasterVersionCount(const std::string& name) const;

 private:
  /// The commit routine every DML write shares: copies `name`'s current
  /// version, applies `modify` to the copy, and publishes it. `modify`
  /// returns how many rows it changed; when that is none, or `modify`
  /// fails, nothing is published.
  Result<uint64_t> Commit(
      const std::string& name,
      const std::function<Result<size_t>(OngoingRelation*)>& modify);

  /// Publishes `data` as `name`'s next version at the next commit
  /// sequence, evicting the ring's oldest entry past the cap. Never
  /// fails; returns the sequence.
  uint64_t Publish(const std::string& name,
                   std::shared_ptr<const OngoingRelation> data) REQUIRES(mu_);

  const size_t version_ring_cap_;

  // The commit lock: serializes writers, each of which reads the
  // published state and stores its successor.
  Mutex mu_;
  PublishedPtr<CatalogState> state_;
};

}  // namespace server
}  // namespace ongoingdb
