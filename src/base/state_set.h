#ifndef XTC_BASE_STATE_SET_H_
#define XTC_BASE_STATE_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace xtc {

/// A packed set of small non-negative integers (automaton states, alphabet
/// symbols) stored as contiguous 64-bit words. Every PTIME algorithm in the
/// paper bottoms out in set-of-states fixpoints — NFA reachability (the
/// Lemma 14 engines), NTA emptiness/finiteness (Proposition 4), the
/// Section 4 determinization — and those fixpoints live or die by the cost
/// of membership tests, unions, and iteration. The word-parallel kernel
/// here replaces bit-at-a-time `std::vector<bool>` in all of them: union,
/// intersection, subtraction, emptiness, and popcount all run 64 states per
/// instruction, and set-bit iteration uses countr_zero rather than a
/// per-index probe.
///
/// The value-type interface mirrors `std::vector<bool>` closely enough
/// (size/operator[]) that reference implementations remain easy to write
/// against it in tests; mutation goes through named methods so the
/// word-parallel paths stay explicit.
class StateSet {
 public:
  StateSet() = default;
  /// A set over the universe {0, .., num_bits-1}, initially empty (or full
  /// when `value` is true).
  explicit StateSet(int num_bits, bool value = false) {
    Assign(num_bits, value);
  }

  /// Resets to a universe of `num_bits` bits, all equal to `value`.
  void Assign(int num_bits, bool value) {
    num_bits_ = num_bits;
    words_.assign(WordCount(num_bits), value ? ~std::uint64_t{0} : 0);
    if (value) ClearPadding();
  }

  /// Grows (or shrinks) the universe, preserving existing members.
  void Resize(int num_bits) {
    num_bits_ = num_bits;
    words_.resize(WordCount(num_bits), 0);
    ClearPadding();
  }

  int size_bits() const { return num_bits_; }
  /// vector<bool>-compatible spelling; used by generic/test code.
  std::size_t size() const { return static_cast<std::size_t>(num_bits_); }
  bool empty_universe() const { return num_bits_ == 0; }

  bool Test(int i) const {
    return (words_[WordOf(i)] >> BitOf(i)) & std::uint64_t{1};
  }
  /// vector<bool>-compatible membership test.
  bool operator[](int i) const { return Test(i); }

  void Set(int i) { words_[WordOf(i)] |= std::uint64_t{1} << BitOf(i); }
  void Reset(int i) { words_[WordOf(i)] &= ~(std::uint64_t{1} << BitOf(i)); }
  void SetTo(int i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }
  /// Sets bit i and reports whether it was previously clear. The
  /// test-and-set of every BFS/worklist loop, in one word access.
  bool TestAndSet(int i) {
    std::uint64_t& w = words_[WordOf(i)];
    const std::uint64_t mask = std::uint64_t{1} << BitOf(i);
    if ((w & mask) != 0) return false;
    w |= mask;
    return true;
  }

  /// Empties the set without changing the universe.
  void Clear() {
    for (std::uint64_t& w : words_) w = 0;
  }

  bool Any() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  int Count() const {
    int n = 0;
    for (std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }

  /// this |= other; returns whether this changed (fixpoint loops test it).
  bool UnionWith(const StateSet& other) {
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t before = words_[i];
      const std::uint64_t after = before | other.words_[i];
      words_[i] = after;
      changed |= before ^ after;
    }
    return changed != 0;
  }

  /// this &= other.
  void IntersectWith(const StateSet& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
    }
  }

  /// this &= ~other.
  void SubtractWith(const StateSet& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= ~other.words_[i];
    }
  }

  /// Whether the sets share a member (word-parallel early-out).
  bool Intersects(const StateSet& other) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  /// Whether every member of `other` is a member of this set.
  bool ContainsAll(const StateSet& other) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((other.words_[i] & ~words_[i]) != 0) return false;
    }
    return true;
  }

  /// Calls f(int bit) for every member, in increasing order, via
  /// countr_zero over the packed words.
  template <typename F>
  void ForEach(F&& f) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t w = words_[i];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        f(static_cast<int>(i * 64) + bit);
        w &= w - 1;
      }
    }
  }

  /// The members as a sorted vector (interner keys, witnesses).
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(Count()));
    ForEach([&out](int b) { out.push_back(b); });
    return out;
  }

  friend bool operator==(const StateSet& a, const StateSet& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

  /// FNV-1a-style hash over the packed words with 64-bit avalanche mixing;
  /// suitable for hashed subset interning.
  std::uint64_t Hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t w : words_) {
      h = (h ^ Mix(w)) * 0x100000001b3ULL;
    }
    return h ^ static_cast<std::uint64_t>(num_bits_);
  }

  /// Builds from a sorted, duplicate-free member list over the universe
  /// {0, .., universe-1} — the shape interner keys and ScratchSet
  /// extractions already have.
  static StateSet FromSorted(std::span<const int> sorted, int universe) {
    StateSet out(universe);
    for (const int i : sorted) out.Set(i);
    return out;
  }

  static StateSet FromBools(const std::vector<bool>& bools) {
    StateSet out(static_cast<int>(bools.size()));
    for (std::size_t i = 0; i < bools.size(); ++i) {
      if (bools[i]) out.Set(static_cast<int>(i));
    }
    return out;
  }

  std::vector<bool> ToBools() const {
    std::vector<bool> out(static_cast<std::size_t>(num_bits_), false);
    ForEach([&out](int b) { out[static_cast<std::size_t>(b)] = true; });
    return out;
  }

 private:
  static std::size_t WordCount(int num_bits) {
    return (static_cast<std::size_t>(num_bits) + 63) / 64;
  }
  static std::size_t WordOf(int i) {
    return static_cast<std::size_t>(i) / 64;
  }
  static unsigned BitOf(int i) { return static_cast<unsigned>(i) % 64; }

  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Bits past num_bits_ in the last word stay zero so that ==, Hash, Count
  // and friends never see garbage.
  void ClearPadding() {
    const unsigned rem = static_cast<unsigned>(num_bits_) % 64;
    if (rem != 0 && !words_.empty()) {
      words_.back() &= (~std::uint64_t{0}) >> (64 - rem);
    }
  }

  int num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Reusable accumulator for the horizontal subset steps (StepH in
/// src/nta/horizontal_space.h): a dense word array sized to the universe,
/// plus a touched-word list so that marking, extraction and reset cost
/// O(touched + members) instead of the O(universe/64) that allocating and
/// scanning a fresh StateSet per step costs. One instance per engine run;
/// not thread-safe.
class ScratchSet {
 public:
  /// Ensures capacity for the universe {0, .., num_bits-1}. The set must be
  /// logically empty when called (i.e. after Clear or
  /// ExtractSortedAndClear).
  void EnsureUniverse(int num_bits) {
    const std::size_t words =
        (static_cast<std::size_t>(num_bits) + 63) / 64;
    if (words > words_.size()) words_.resize(words, 0);
  }

  /// Adds `i`; returns whether it was newly added.
  bool Add(int i) {
    const std::size_t w = static_cast<std::size_t>(i) / 64;
    const std::uint64_t mask = std::uint64_t{1} << (static_cast<unsigned>(i) %
                                                    64);
    const std::uint64_t before = words_[w];
    if ((before & mask) != 0) return false;
    if (before == 0) touched_.push_back(static_cast<int>(w));
    words_[w] = before | mask;
    return true;
  }

  bool Test(int i) const {
    const std::size_t w = static_cast<std::size_t>(i) / 64;
    return w < words_.size() &&
           ((words_[w] >> (static_cast<unsigned>(i) % 64)) & 1) != 0;
  }

  /// Empties the set, clearing only the touched words.
  void Clear() {
    for (const int w : touched_) words_[static_cast<std::size_t>(w)] = 0;
    touched_.clear();
  }

  /// Writes the members to `*out` in increasing order (replacing its
  /// contents) and empties the set, clearing only the touched words.
  void ExtractSortedAndClear(std::vector<int>* out) {
    out->clear();
    std::sort(touched_.begin(), touched_.end());
    for (const int w : touched_) {
      std::uint64_t bits = words_[static_cast<std::size_t>(w)];
      words_[static_cast<std::size_t>(w)] = 0;
      while (bits != 0) {
        out->push_back(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
      }
    }
    touched_.clear();
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<int> touched_;  ///< word indices with at least one bit set
};

}  // namespace xtc

#endif  // XTC_BASE_STATE_SET_H_
