// The tuple storage of an OngoingRelation: tuples in fixed-size chunks
// that copies share, so that copying a relation — which is how a served
// table publishes each new version (server/catalog.h) — costs
// O(n / kChunkSize + kChunkSize) instead of O(n). Each full chunk also
// carries a synopsis of its values, computed the first time a
// modification's match asks for it and shared with the chunk, which lets
// a DELETE or UPDATE pass over chunks that cannot hold a matching row
// (relation/modifications.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "relation/tuple.h"

namespace ongoingdb {

/// A small materialized aggregate (G. Moerkotte, VLDB 1998) of one full
/// chunk: per value position, the least and the greatest INT64 there,
/// kept only when every tuple of the chunk holds an INT64 at that
/// position. A chunk test (PairPredicate::RulesOut) reads it to prove
/// that no tuple of the chunk passes a comparison with an INT64 literal.
class ChunkSynopsis {
 public:
  struct Int64Range {
    int64_t min = 0;
    int64_t max = 0;
  };

  /// The range at position i, or nullptr when some tuple of the chunk
  /// holds another type (or no value) there.
  const Int64Range* Int64At(size_t i) const {
    return i < ranges_.size() && ranges_[i].has_value() ? &*ranges_[i]
                                                        : nullptr;
  }

 private:
  friend class TupleStore;
  static ChunkSynopsis Of(std::span<const Tuple> tuples);

  std::vector<std::optional<Int64Range>> ranges_;  // per value position
};

/// A sequence of tuples in chunks of kChunkSize. Every full chunk is
/// immutable and held by pointer to const, so a copy of the store shares
/// all of them; only the last, partial chunk (the tail) is owned, and
/// copied with the store. Writing to a tuple in a full chunk goes
/// through an Edit, which copies the chunk first.
///
/// A full chunk's synopsis lives in the chunk, so every store sharing
/// the chunk shares it too. It is computed lazily, by the first
/// synopsis() call on the chunk, and not when the chunk fills: most
/// chunks belong to relations no modification scans (query results, the
/// per-poll instantiations of a view), and computing it on every fill
/// measured slower view polls. A chunk an Edit copies starts with none.
class TupleStore {
  // A full chunk. Its tuples are never written once the chunk is shared
  // (an Edit writes only its own copy), so the synopsis, published once
  // by std::call_once and read only after call_once returns, stays
  // true for the chunk's lifetime. The once-flag is the only
  // synchronization it needs, which is why it is not GUARDED_BY a
  // Mutex (DESIGN.md, "Static analysis").
  struct Chunk {
    explicit Chunk(std::vector<Tuple> t) : tuples(std::move(t)) {}

    std::vector<Tuple> tuples;
    mutable std::once_flag synopsis_once;
    mutable ChunkSynopsis synopsis;
  };

 public:
  /// Tuples per chunk: a power of two, so indexed access is a shift and
  /// a mask. 256 keeps both a copy's share of pointers (n / 256) and the
  /// tail it copies (< 256 tuples) small next to the table.
  static constexpr size_t kChunkShift = 8;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  /// Walks each chunk by pointer; only the step off a chunk's end looks
  /// at the next one.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    /// The end iterator.
    const_iterator() = default;

    reference operator*() const { return *cur_; }
    pointer operator->() const { return cur_; }
    const_iterator& operator++() {
      if (++cur_ == stop_) EnterChunk();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return cur_ == other.cur_;
    }

   private:
    friend class TupleStore;
    explicit const_iterator(const TupleStore* store) : store_(store) {
      EnterChunk();
    }
    // Moves to the first tuple of the next non-empty chunk (the tail
    // last), or to the end. Defined in the class so that range-for
    // loops can inline it.
    void EnterChunk() {
      const size_t full = store_->chunks_.size();
      while (next_chunk_ <= full) {
        const std::vector<Tuple>& chunk =
            next_chunk_ < full ? store_->chunks_[next_chunk_]->tuples
                               : store_->tail_;
        ++next_chunk_;
        if (!chunk.empty()) {
          cur_ = chunk.data();
          stop_ = cur_ + chunk.size();
          return;
        }
      }
      cur_ = stop_ = nullptr;
    }

    const TupleStore* store_ = nullptr;
    size_t next_chunk_ = 0;  // full chunks, then the tail at chunks_.size()
    const Tuple* cur_ = nullptr;  // nullptr at the end
    const Tuple* stop_ = nullptr;
  };

  /// Write access for one in-place modification. The first write that
  /// lands in a full chunk replaces the store's pointer with a private
  /// copy of that chunk, and later writes of the same Edit reuse the
  /// copy, so one Edit copies each chunk it touches at most once. The
  /// decision reads only what this Edit has copied, never a reference
  /// count. The store must outlive the Edit and must not be copied while
  /// it is live: a copy would share the chunks the Edit still writes. A
  /// chunk the Edit copies starts with no synopsis, and synopsis() must
  /// not be called on it while the Edit is live.
  class Edit {
   public:
    explicit Edit(TupleStore* store) : store_(store) {}
    Edit(const Edit&) = delete;
    Edit& operator=(const Edit&) = delete;

    /// The tuple at position i, writable.
    Tuple& Mutable(size_t i);

    /// Removes position i by moving the last tuple into its place; tuple
    /// order is not preserved. When the tail is empty the last full
    /// chunk becomes the tail first, which copies it unless this Edit
    /// already has.
    void SwapRemove(size_t i);

   private:
    // The tuples of this Edit's private copy of full chunk c, made on
    // first use.
    std::vector<Tuple>& Owned(size_t c);

    TupleStore* store_;
    std::vector<Chunk*> owned_;  // per full chunk; nullptr until copied
  };

  size_t size() const { return (chunks_.size() << kChunkShift) + tail_.size(); }
  bool empty() const { return chunks_.empty() && tail_.empty(); }

  const Tuple& operator[](size_t i) const {
    const size_t c = i >> kChunkShift;
    const std::vector<Tuple>& chunk = c < chunks_.size() ? chunks_[c]->tuples
                                                          : tail_;
    return chunk[i & (kChunkSize - 1)];
  }

  const_iterator begin() const { return const_iterator(this); }
  const_iterator end() const { return const_iterator(); }

  /// The chunk walk: full chunk c, for c < num_full_chunks(), holds
  /// positions [c * kChunkSize, (c + 1) * kChunkSize), and the tail
  /// follows at c == num_full_chunks().
  size_t num_full_chunks() const { return chunks_.size(); }
  std::span<const Tuple> chunk(size_t c) const {
    return c < chunks_.size() ? std::span<const Tuple>(chunks_[c]->tuples)
                              : std::span<const Tuple>(tail_);
  }

  /// Full chunk c's synopsis. The first call on a chunk computes it, once
  /// even when stores sharing the chunk call concurrently; later calls
  /// from any of them read it.
  const ChunkSynopsis& synopsis(size_t c) const;

  /// Appends t; a tail that fills up becomes a shared full chunk.
  void push_back(Tuple&& t) {
    if (tail_.size() == tail_.capacity()) GrowTail();
    tail_.push_back(std::move(t));
    if (tail_.size() == kChunkSize) {
      chunks_.push_back(std::make_shared<const Chunk>(std::move(tail_)));
      tail_.clear();
    }
  }

  /// Reserves room for n tuples: chunk pointers, and the tail up to one
  /// chunk.
  void reserve(size_t n);

  void clear();

 private:
  // Makes room for one more tuple in a full tail.
  void GrowTail();

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  std::vector<Tuple> tail_;  // < kChunkSize tuples
};

}  // namespace ongoingdb
