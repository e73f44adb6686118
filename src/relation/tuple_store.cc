#include "relation/tuple_store.h"

#include <algorithm>

namespace ongoingdb {

ChunkSynopsis ChunkSynopsis::Of(std::span<const Tuple> tuples) {
  ChunkSynopsis out;
  if (tuples.empty()) return out;
  const size_t arity = tuples.front().num_values();
  out.ranges_.assign(arity, std::nullopt);
  for (size_t i = 0; i < arity; ++i) {
    Int64Range range{INT64_MAX, INT64_MIN};
    bool all_int64 = true;
    for (const Tuple& t : tuples) {
      if (i >= t.num_values() || t.value(i).type() != ValueType::kInt64) {
        all_int64 = false;
        break;
      }
      const int64_t v = t.value(i).AsInt64();
      range.min = std::min(range.min, v);
      range.max = std::max(range.max, v);
    }
    if (all_int64) out.ranges_[i] = range;
  }
  return out;
}

const ChunkSynopsis& TupleStore::synopsis(size_t c) const {
  const Chunk& chunk = *chunks_[c];
  std::call_once(chunk.synopsis_once, [&chunk] {
    chunk.synopsis = ChunkSynopsis::Of(chunk.tuples);
  });
  return chunk.synopsis;
}

std::vector<Tuple>& TupleStore::Edit::Owned(size_t c) {
  if (owned_.size() <= c) owned_.resize(store_->chunks_.size(), nullptr);
  if (owned_[c] == nullptr) {
    auto copy = std::make_shared<Chunk>(store_->chunks_[c]->tuples);
    owned_[c] = copy.get();
    store_->chunks_[c] = std::move(copy);
  }
  return owned_[c]->tuples;
}

Tuple& TupleStore::Edit::Mutable(size_t i) {
  const size_t c = i >> kChunkShift;
  std::vector<Tuple>& chunk =
      c < store_->chunks_.size() ? Owned(c) : store_->tail_;
  return chunk[i & (kChunkSize - 1)];
}

void TupleStore::Edit::SwapRemove(size_t i) {
  std::vector<std::shared_ptr<const Chunk>>& chunks = store_->chunks_;
  std::vector<Tuple>& tail = store_->tail_;
  if (tail.empty()) {
    const size_t c = chunks.size() - 1;
    if (c < owned_.size() && owned_[c] != nullptr) {
      tail = std::move(owned_[c]->tuples);
      owned_[c] = nullptr;
    } else {
      tail = chunks[c]->tuples;
    }
    chunks.pop_back();
  }
  const size_t last = store_->size() - 1;
  if (i != last) Mutable(i) = std::move(tail.back());
  tail.pop_back();
}

void TupleStore::GrowTail() {
  // A store that has filled a chunk is likely to fill the next, so its
  // tail takes a whole chunk at once; a smaller one grows geometrically.
  // Either way a full tail becomes a chunk without spare slots.
  const size_t grown = std::max<size_t>(8, 2 * tail_.size());
  tail_.reserve(chunks_.empty() ? std::min(kChunkSize, grown) : kChunkSize);
}

void TupleStore::reserve(size_t n) {
  chunks_.reserve(n >> kChunkShift);
  tail_.reserve(std::min(n, kChunkSize));
}

void TupleStore::clear() {
  chunks_.clear();
  tail_.clear();
}

}  // namespace ongoingdb
