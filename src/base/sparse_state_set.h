#ifndef XTC_BASE_SPARSE_STATE_SET_H_
#define XTC_BASE_SPARSE_STATE_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/base/state_set.h"

namespace xtc {

/// Universe size at which AdaptiveStateSet switches from the dense
/// word-parallel StateSet to the sorted-sparse representation. The dense
/// kernel pays O(universe/64) per construction/merge regardless of how few
/// members a set has; on the constructed hardness families (Thm 18 /
/// Lemma 27 universes of many thousands of states, subsets of a handful)
/// that fixed cost dominates, and the sorted-sparse kernels — O(members)
/// with word-free merges — win. Under a few thousand states the packed
/// words fit a few cache lines and the dense kernel is unbeatable, hence
/// the threshold. Overridable per engine run via
/// LazyOptions::dense_threshold.
inline constexpr int kDefaultDenseThreshold = 2048;

/// A set of small non-negative integers stored as a sorted, duplicate-free
/// member vector: O(members) storage and iteration independent of the
/// universe size. Complements StateSet (src/base/state_set.h), which this
/// representation beats only when the universe is much larger than the
/// membership — the exact shape of determinized-subset masks on
/// large-universe instances.
class SparseStateSet {
 public:
  SparseStateSet() = default;

  /// Builds from an already-sorted, duplicate-free member list over the
  /// universe {0, .., universe-1}.
  static SparseStateSet FromSorted(std::span<const int> sorted, int universe) {
    SparseStateSet out;
    out.universe_ = universe;
    out.members_.assign(sorted.begin(), sorted.end());
    return out;
  }

  int universe() const { return universe_; }
  int Count() const { return static_cast<int>(members_.size()); }
  std::span<const int> members() const { return members_; }

  /// Membership by binary search: O(log members), not O(1) — callers on a
  /// hot path with dense-universe sets should be holding a StateSet.
  bool Test(int i) const {
    return std::binary_search(members_.begin(), members_.end(), i);
  }

  /// Whether every member of `other` is a member of this set, by a single
  /// merge walk: O(|this| + |other|), no word scans.
  bool ContainsAll(const SparseStateSet& other) const {
    std::size_t i = 0;
    for (const int x : other.members_) {
      while (i < members_.size() && members_[i] < x) ++i;
      if (i == members_.size() || members_[i] != x) return false;
      ++i;
    }
    return true;
  }

  friend bool operator==(const SparseStateSet& a, const SparseStateSet& b) {
    return a.universe_ == b.universe_ && a.members_ == b.members_;
  }

 private:
  std::vector<int> members_;  ///< sorted, duplicate-free
  int universe_ = 0;
};

/// The adaptive representation the lazy engine stores its determinized
/// subset masks in: word-parallel dense StateSet while the universe fits
/// the dense sweet spot (<= dense_threshold states), sorted-sparse above
/// it. Both sides of every comparison in one engine run share a universe
/// and threshold, so the kernels below never need a mixed-mode fast path —
/// the elementwise fallback exists only for defensive completeness.
class AdaptiveStateSet {
 public:
  AdaptiveStateSet() = default;

  /// Builds from a sorted, duplicate-free member list over the universe
  /// {0, .., universe-1}; representation chosen by universe vs threshold.
  AdaptiveStateSet(std::span<const int> sorted, int universe,
                   int dense_threshold) {
    sparse_mode_ = universe > dense_threshold;
    if (sparse_mode_) {
      sparse_ = SparseStateSet::FromSorted(sorted, universe);
    } else {
      dense_ = StateSet::FromSorted(sorted, universe);
    }
  }

  bool sparse() const { return sparse_mode_; }
  int universe() const {
    return sparse_mode_ ? sparse_.universe() : dense_.size_bits();
  }
  int Count() const { return sparse_mode_ ? sparse_.Count() : dense_.Count(); }

  bool Test(int i) const {
    return sparse_mode_ ? sparse_.Test(i) : dense_.Test(i);
  }

  /// Whether every member of `other` is a member of this set — the
  /// subsumption kernel of the antichain index (src/base/antichain.h).
  bool ContainsAll(const AdaptiveStateSet& other) const {
    if (sparse_mode_ == other.sparse_mode_) {
      return sparse_mode_ ? sparse_.ContainsAll(other.sparse_)
                          : dense_.ContainsAll(other.dense_);
    }
    // Mixed representations only arise if two runs with different
    // thresholds share sets — never the engines' case. Correct, slow path.
    if (other.sparse_mode_) {
      for (const int x : other.sparse_.members()) {
        if (!dense_.Test(x)) return false;
      }
      return true;
    }
    bool ok = true;
    other.dense_.ForEach([&](int x) { ok = ok && sparse_.Test(x); });
    return ok;
  }

 private:
  StateSet dense_;
  SparseStateSet sparse_;
  bool sparse_mode_ = false;
};

/// Reusable successor accumulator for the horizontal subset steps (StepH
/// and the lazy engine's StepDet): a dense word array sized to the
/// universe, plus a touched-word list so extraction and reset cost
/// O(touched + members) instead of the O(universe/64) that allocating and
/// scanning a fresh StateSet per step costs. One instance per engine run;
/// not thread-safe.
class ScratchSet {
 public:
  /// Ensures capacity for the universe {0, .., num_bits-1}. The set must be
  /// logically empty when called (i.e. after ExtractSortedAndClear).
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

#endif  // XTC_BASE_SPARSE_STATE_SET_H_
