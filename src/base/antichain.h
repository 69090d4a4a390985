#ifndef XTC_BASE_ANTICHAIN_H_
#define XTC_BASE_ANTICHAIN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace xtc {

/// Hash signature over the existential coordinates of a product config key.
/// Two configs are comparable under the subsumption order only when their
/// existential coordinates agree exactly (the order relaxes only the
/// determinized subset slots), so bucketing by this signature partitions
/// the config space into independent comparability classes. FNV-1a over
/// splitmix-mixed coordinates, matching SubsetInterner::HashKey's shape.
inline std::uint64_t ExSignature(std::span<const int> key,
                                 std::span<const int> ex_positions) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int pos : ex_positions) {
    std::uint64_t x =
        static_cast<std::uint64_t>(key[static_cast<std::size_t>(pos)]);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    h = (h ^ x) * 0x100000001b3ULL;
  }
  return h;
}

/// Maintains the set of live (non-subsumed) product configs as an antichain
/// under a caller-supplied dominance order: configs bucketed by existential
/// signature, each bucket holding mutually incomparable entries. Insert
/// either prunes the newcomer (some live entry dominates it), or admits it
/// and displaces every live entry it dominates. DESIGN.md §3e gives the
/// soundness argument for why the lazy engine may skip pruned configs.
///
/// Thread-compatibility: single-thread only.
class AntichainIndex {
 public:
  /// `ex_positions`: the key positions holding existential (exact-match)
  /// coordinates. The remaining positions are the determinized subset ids
  /// the dominance callback compares.
  void Configure(std::vector<int> ex_positions) {
    ex_positions_ = std::move(ex_positions);
  }

  /// Offers config `id` with interned `key` to the antichain.
  /// `dominates(a_key, b_key)` must return whether the config keyed a_key
  /// subsumes the config keyed b_key (a partial order; both keys have the
  /// caller's full layout). Returns true when `id` is dominated by a live
  /// entry — the caller should mark it pruned and not expand it. Otherwise
  /// appends the ids of every entry `id` displaced to `*displaced` (without
  /// clearing it) and returns false.
  ///
  /// The key is copied into the bucket entry, so callers may pass spans
  /// invalidated by their interner's next insertion.
  template <typename Dominates>
  bool Insert(int id, std::span<const int> key, Dominates&& dominates,
              std::vector<int>* displaced) {
    Bucket& bucket = buckets_[ExSignature(key, ex_positions_)];
    for (const Entry& e : bucket.entries) {
      if (dominates(std::span<const int>(e.key), key)) return true;
    }
    // No live entry dominates the newcomer, so (antichain invariant) any
    // entry it dominates cannot dominate it back; displacement is safe.
    std::size_t w = 0;
    for (std::size_t r = 0; r < bucket.entries.size(); ++r) {
      if (dominates(key, std::span<const int>(bucket.entries[r].key))) {
        displaced->push_back(bucket.entries[r].id);
      } else {
        if (w != r) bucket.entries[w] = std::move(bucket.entries[r]);
        ++w;
      }
    }
    bucket.entries.resize(w);
    bucket.entries.push_back(
        Entry{id, std::vector<int>(key.begin(), key.end())});
    return false;
  }

  /// The number of live (never-displaced) entries across all buckets.
  std::size_t live() const {
    std::size_t n = 0;
    for (const auto& [sig, bucket] : buckets_) n += bucket.entries.size();
    return n;
  }

 private:
  struct Entry {
    int id;
    std::vector<int> key;
  };
  struct Bucket {
    std::vector<Entry> entries;
  };

  std::vector<int> ex_positions_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
};

}  // namespace xtc

#endif  // XTC_BASE_ANTICHAIN_H_
