// PublishedPtr: the publication primitive of the serving layer
// (src/server). A single writer builds a fully formed immutable state
// object off to the side and publishes it by swapping one shared_ptr;
// any number of readers pin the current state by copying that
// shared_ptr and then work exclusively on their pinned copy. Readers
// therefore never observe a half-built state, and keep their pinned
// state alive for as long as they hold the shared_ptr: superseded states
// are reclaimed by the last reader to let go, which is exactly the
// snapshot lifetime rule the catalog needs.
//
// Implementation: the shared_ptr sits under an annotated Mutex. Load()
// copies it under the lock (a reference-count increment), and Store()
// swaps it under the lock and drops the superseded state after
// unlocking, so a reader waits at most for a pointer swap, never for a
// state's destruction. The lock's acquire/release gives the publish
// protocol its ordering: everything the writer wrote into the state
// object happens-before any reader's use of the pinned pointer. The
// lock replaces std::atomic<std::shared_ptr> and the atomic free
// functions, whose libstdc++ implementation ThreadSanitizer reports as a
// race between a concurrent load and store.
#pragma once

#include <memory>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ongoingdb {

/// A single-writer, many-reader published pointer to an immutable T.
template <typename T>
class PublishedPtr {
 public:
  PublishedPtr() = default;
  explicit PublishedPtr(std::shared_ptr<const T> initial)
      : ptr_(std::move(initial)) {}
  PublishedPtr(const PublishedPtr&) = delete;
  PublishedPtr& operator=(const PublishedPtr&) = delete;

  /// Pins the currently published state.
  std::shared_ptr<const T> Load() const {
    MutexLock lock(mu_);
    return ptr_;
  }

  /// Publishes `next` as the current state. The caller must be done
  /// mutating *next before the call (readers may see it immediately).
  void Store(std::shared_ptr<const T> next) {
    {
      MutexLock lock(mu_);
      ptr_.swap(next);
    }
    // `next` now holds the superseded state; it is released here,
    // outside the lock.
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const T> ptr_ GUARDED_BY(mu_);
};

}  // namespace ongoingdb
