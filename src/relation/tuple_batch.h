// TupleBatch: the unit of data flow of the pull-based execution API
// (query/physical.h). A batch is a fixed-capacity array of reusable
// Tuple slots; producers fill slots via NextSlot() and consumers read
// them back by index.
//
// The batch doubles as an arena: Clear() resets the logical size but
// keeps every slot's value-vector capacity and (possibly spilled)
// IntervalSet buffer, so a batch that is recycled across Next() calls
// amortizes its per-tuple heap allocations to zero. Only when a slot's
// Tuple is moved *out* (DrainToRelation at the root of an operator
// tree) does its storage leave the batch.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "relation/tuple.h"

namespace ongoingdb {

/// A fixed-capacity batch of reusable tuple slots.
class TupleBatch {
 public:
  /// Default slot count. Large enough to amortize per-batch virtual
  /// calls, small enough that a batch of typical tuples stays
  /// cache-resident.
  static constexpr size_t kDefaultCapacity = 1024;

  explicit TupleBatch(size_t capacity = kDefaultCapacity)
      : slots_(capacity) {}

  size_t capacity() const { return slots_.size(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

  /// Resets the logical size to zero. Slot storage (value-vector
  /// capacity, spilled interval buffers) is kept for reuse.
  void Clear() { size_ = 0; }

  /// Claims the next slot and returns it with its value vector cleared
  /// (capacity kept). The slot's reference time is stale: the producer
  /// must set_rt() before the batch is handed to a consumer. Must not be
  /// called on a full batch.
  Tuple& NextSlot() {
    assert(size_ < slots_.size());
    Tuple& slot = slots_[size_++];
    slot.mutable_values().clear();
    return slot;
  }

  /// Releases the most recently claimed slot (a producer discovered the
  /// candidate tuple is rejected after claiming it).
  void PopLast() {
    assert(size_ > 0);
    --size_;
  }

  /// Keeps the first n tuples (in-place compaction by a filter).
  void Truncate(size_t n) {
    assert(n <= size_);
    size_ = n;
  }

  const Tuple& tuple(size_t i) const { return slots_[i]; }
  Tuple& tuple(size_t i) {
    assert(i < size_);
    return slots_[i];
  }

 private:
  std::vector<Tuple> slots_;
  size_t size_ = 0;
};

}  // namespace ongoingdb
