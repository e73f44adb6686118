// A minimal slotted-page heap file for ongoing relations: fixed-size
// pages with a slot directory, append and full-scan access. The
// temporal_audit example persists a relation to it and scans it back;
// storage_test and robustness_test check the page layout. (The Table V
// experiment sizes tuples with storage/stats.h instead.)
#pragma once

#include <cstdint>
#include <vector>

#include "relation/relation.h"
#include "storage/serializer.h"
#include "util/result.h"

namespace ongoingdb {

/// Default page size, matching PostgreSQL's 8 KiB pages.
inline constexpr size_t kDefaultPageSize = 8192;

/// One slotted page: [header | slot directory ->| ... <- tuple data].
class HeapPage {
 public:
  explicit HeapPage(size_t page_size = kDefaultPageSize)
      : page_size_(page_size) {}

  /// Tries to append a serialized tuple; returns false when the page
  /// lacks space (caller then opens a new page).
  bool Append(const std::vector<uint8_t>& tuple_bytes);

  size_t num_tuples() const { return slots_.size(); }

  /// Bytes used, including header and slot directory.
  size_t BytesUsed() const;

  size_t page_size() const { return page_size_; }

  /// The serialized tuple at `slot`.
  std::vector<uint8_t> Read(size_t slot) const;

 private:
  static constexpr size_t kHeaderBytes = 24;  // lsn, checksum, free ptrs
  static constexpr size_t kSlotBytes = 4;     // offset + length

  struct Slot {
    uint32_t offset;
    uint32_t length;
  };

  size_t page_size_;
  std::vector<Slot> slots_;
  std::vector<uint8_t> data_;
};

/// An append-only sequence of heap pages holding one relation.
class HeapFile {
 public:
  explicit HeapFile(Schema schema, size_t page_size = kDefaultPageSize)
      : schema_(std::move(schema)), page_size_(page_size) {}

  /// Appends one tuple, opening a new page when the current one is full.
  /// Fails if a single tuple exceeds the page capacity.
  Status Append(const Tuple& tuple);

  /// Bulk-loads a whole relation.
  Status Load(const OngoingRelation& relation);

  /// Reads every tuple back into a relation (full scan).
  Result<OngoingRelation> Scan() const;

  size_t num_pages() const { return pages_.size(); }
  size_t num_tuples() const { return num_tuples_; }

  /// Total bytes across pages (each page counts fully once opened,
  /// mirroring how a paged file occupies disk).
  size_t TotalBytes() const { return pages_.size() * page_size_; }

  /// Bytes actually occupied by headers, slots and tuple data.
  size_t UsedBytes() const;

 private:
  Schema schema_;
  size_t page_size_;
  std::vector<HeapPage> pages_;
  size_t num_tuples_ = 0;
};

}  // namespace ongoingdb
