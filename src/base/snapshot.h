#ifndef XTC_BASE_SNAPSHOT_H_
#define XTC_BASE_SNAPSHOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

// Under ThreadSanitizer the slot degrades to a mutex-guarded shared_ptr:
// libstdc++'s atomic<shared_ptr> serializes its plain internal pointer
// accesses with an embedded lock *bit*, but the load path releases it with
// a relaxed RMW, so tsan sees no happens-before edge to the next store and
// reports the library's own internals. The fallback keeps every race in
// *our* code visible (init-before-publish ordering, map vs snapshot
// divergence) while taking the library idiom out of the picture; release
// builds keep the genuinely mutex-free read path, which is what
// BM_CacheWarmHitContention and ci/cache_gate.py measure.
#if defined(__SANITIZE_THREAD__)
#define XTC_SNAPSHOT_TSAN_FALLBACK 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XTC_SNAPSHOT_TSAN_FALLBACK 1
#endif
#endif
#if defined(XTC_SNAPSHOT_TSAN_FALLBACK)
#include <mutex>
#endif

namespace xtc {

/// A single published-pointer slot for read-mostly data structures, in the
/// snapshot/RCU style. Init before publish: a writer fully constructs an
/// immutable object, then Publish()es it with release semantics, so every
/// write to it happens-before any read through the published pointer;
/// readers Acquire() the current version with acquire semantics and may
/// keep using it for as long as they hold the shared_ptr, even while newer
/// versions land.
///
/// Readers never block writers and writers never block readers — there is
/// no mutex anywhere in this class. Old versions are reclaimed by the
/// shared_ptr control block when the last reader drops them, which is
/// exactly the grace-period rule RCU implements by hand.
///
/// Thread-compatibility: thread-safe.
template <typename T>
class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  explicit SnapshotSlot(std::shared_ptr<T> initial) {
    Publish(std::move(initial));
  }
  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  /// The current published version (null before the first Publish).
  std::shared_ptr<T> Acquire() const {
#if defined(XTC_SNAPSHOT_TSAN_FALLBACK)
    std::lock_guard<std::mutex> lock(mu_);
    return slot_;
#elif defined(__cpp_lib_atomic_shared_ptr)
    return slot_.load(std::memory_order_acquire);
#else
    return std::atomic_load_explicit(&slot_, std::memory_order_acquire);
#endif
  }

  /// Atomically replaces the published version. The object behind `next`
  /// must be immutable (or externally synchronized) from this point on.
  void Publish(std::shared_ptr<T> next) {
#if defined(XTC_SNAPSHOT_TSAN_FALLBACK)
    std::lock_guard<std::mutex> lock(mu_);
    slot_ = std::move(next);
#elif defined(__cpp_lib_atomic_shared_ptr)
    slot_.store(std::move(next), std::memory_order_release);
#else
    std::atomic_store_explicit(&slot_, std::move(next),
                               std::memory_order_release);
#endif
  }

 private:
#if defined(XTC_SNAPSHOT_TSAN_FALLBACK)
  mutable std::mutex mu_;
  std::shared_ptr<T> slot_;
#elif defined(__cpp_lib_atomic_shared_ptr)
  std::atomic<std::shared_ptr<T>> slot_;
#else
  std::shared_ptr<T> slot_;
#endif
};

/// An immutable open-addressed hash index over shared entries, built once
/// by a writer (under its lock) and published through a SnapshotSlot. The
/// entry type must expose `hash` (a 64-bit content hash, e.g. HashBytes of
/// the key) and `key` (the full key, compared on probe — collisions cost a
/// probe, never a wrong entry) data members.
///
/// The table owns shared_ptrs to its entries, so a reader holding the
/// table's shared_ptr can safely read any entry it finds even if a writer
/// concurrently publishes a successor table without that entry.
///
/// Thread-compatibility: thread-safe for reads once published (the slot
/// array is never mutated after Build returns).
template <typename EntryT>
class SnapshotTable {
 public:
  /// Builds a table over `entries` at <= 50% load factor.
  static std::shared_ptr<const SnapshotTable> Build(
      std::vector<std::shared_ptr<EntryT>> entries) {
    auto table = std::make_shared<SnapshotTable>();
    std::size_t capacity = 4;
    while (capacity < entries.size() * 2) capacity <<= 1;
    table->slots_.assign(capacity, nullptr);
    table->mask_ = capacity - 1;
    table->size_ = entries.size();
    for (std::shared_ptr<EntryT>& entry : entries) {
      std::size_t i = entry->hash & table->mask_;
      while (table->slots_[i] != nullptr) i = (i + 1) & table->mask_;
      table->slots_[i] = std::move(entry);
    }
    return table;
  }

  /// The entry whose full key equals `key`, or null. The returned pointer
  /// stays valid while the caller holds the table's shared_ptr.
  EntryT* Find(std::uint64_t hash, std::string_view key) const {
    std::size_t i = hash & mask_;
    while (slots_[i] != nullptr) {
      if (slots_[i]->hash == hash && slots_[i]->key == key) {
        return slots_[i].get();
      }
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  std::size_t size() const { return size_; }

  /// Visits every entry (order unspecified).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const std::shared_ptr<EntryT>& slot : slots_) {
      if (slot != nullptr) fn(*slot);
    }
  }

 private:
  std::vector<std::shared_ptr<EntryT>> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace xtc

#endif  // XTC_BASE_SNAPSHOT_H_
