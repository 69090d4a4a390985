#ifndef XTC_BASE_INTERNER_H_
#define XTC_BASE_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace xtc {

/// Hash-based interning of int sequences: sorted state subsets (the subset
/// constructions of Section 4 and `Dfa::FromNfa`), obligation tuples (the
/// Lemma 14 saturation keys), and product-configuration vectors all reduce
/// to "give this int vector a dense id, idempotently". The ordered
/// `std::map<std::vector<int>, int>` this replaces costs O(log n) vector
/// comparisons per lookup; interning here is one FNV/splitmix-style hash
/// plus expected O(1) probes in an open-addressed power-of-two table, and
/// all key storage is a single flat pool (one allocation amortized, no
/// per-key nodes).
///
/// Ids are dense and assigned in first-insertion order, so callers can use
/// them directly as indices into side arrays (worklists, entry tables).
///
/// Thread-compatibility: single-thread only. Each engine run owns its
/// interners; Intern rehashes and grows the pool, so concurrent readers of
/// Get()/Find() would race with any writer (see src/base/README.md).
class SubsetInterner {
 public:
  SubsetInterner() = default;

  /// The id of `key`, inserting it if new. Ids count up from 0.
  int Intern(std::span<const int> key);

  /// The id of `key`, or -1 when it was never interned.
  int Find(std::span<const int> key) const;

  /// The interned key for `id` (valid until the interner is destroyed;
  /// pool storage is stable only between Intern calls, so don't hold
  /// spans across insertions).
  std::span<const int> Get(int id) const {
    const std::size_t b = offsets_[static_cast<std::size_t>(id)];
    const std::size_t e = offsets_[static_cast<std::size_t>(id) + 1];
    return std::span<const int>(pool_.data() + b, e - b);
  }

  int size() const { return static_cast<int>(hashes_.size()); }

  /// Pre-sizes the table and pool for about `keys` keys of about
  /// `ints_per_key` ints each.
  void Reserve(std::size_t keys, std::size_t ints_per_key);

  /// Forgets every key but keeps the table and pool capacity. Search loops
  /// that run once per saturation entry reuse one interner instead of
  /// reallocating the table each call.
  void Clear();

  static std::uint64_t HashKey(std::span<const int> key);

 private:
  void Rehash(std::size_t new_size);

  // Flat key storage: key i lives at pool_[offsets_[i] .. offsets_[i+1]).
  std::vector<int> pool_;
  std::vector<std::size_t> offsets_{0};
  std::vector<std::uint64_t> hashes_;  // per id, cached for rehash/compare
  // Open-addressed table of ids (-1 = empty); size is a power of two.
  std::vector<int> table_;
  std::size_t mask_ = 0;
};

}  // namespace xtc

#endif  // XTC_BASE_INTERNER_H_
