// The catalog: named ongoing relations that SQL statements reference.
// Every entry is a read-only view of a shared, immutable relation — in
// serving, a version published by a server snapshot (server/catalog.h,
// Snapshot::View). Plans scan it in place, and the shared_ptr keeps the
// pinned version alive for the life of the catalog. There is no mutable
// access: writes go through the server catalog's commit path.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {
namespace sql {

/// A registry of named, read-only base relations.
class Catalog {
 public:
  /// Registers (or replaces) a read-only view of a shared immutable
  /// relation (a pinned snapshot version). The catalog participates in
  /// the relation's lifetime but never mutates it.
  void RegisterShared(const std::string& name,
                      std::shared_ptr<const OngoingRelation> relation) {
    relations_[name] = std::move(relation);
  }

  /// Looks up a relation; the pointer stays valid until the relation is
  /// replaced or the catalog is destroyed.
  Result<const OngoingRelation*> Get(const std::string& name) const {
    auto it = relations_.find(name);
    if (it == relations_.end()) {
      return Status::NotFound("no relation named '" + name + "'");
    }
    return it->second.get();
  }

 private:
  std::map<std::string, std::shared_ptr<const OngoingRelation>> relations_;
};

}  // namespace sql
}  // namespace ongoingdb
