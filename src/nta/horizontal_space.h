#ifndef XTC_NTA_HORIZONTAL_SPACE_H_
#define XTC_NTA_HORIZONTAL_SPACE_H_

#include <span>
#include <utility>
#include <vector>

#include "src/base/state_set.h"
#include "src/nta/nta.h"

namespace xtc {

/// Per input symbol `a`, all horizontal NFAs delta(q, a) of one NTA embedded
/// into one global state space, so that a set of global states ("h-state")
/// summarizes, for every q simultaneously, where a horizontal run can be.
/// Shared between the eager subset construction (DeterminizeToDtac) and the
/// lazy frontier engine (src/nta/lazy.h), which additionally walks single
/// global states for existential (non-determinized) product components.
struct HorizontalSpace {
  /// offset[q] .. offset[q] + |delta(q, a)| are the global ids of
  /// delta(q, a)'s states; -1 when the transition is absent.
  std::vector<int> offset;
  std::vector<const Nfa*> nfa;
  std::vector<int> owner;                   ///< global id -> q
  std::vector<int> initials;                ///< global ids, sorted
  std::vector<std::pair<int, int>> finals;  ///< (global id, q), id-sorted
  StateSet final_mask;                      ///< over global ids
  int total = 0;

  static HorizontalSpace Build(const Nta& nta, int a);

  /// Calls f(symbol, successor_global_id) for every NFA edge out of the
  /// global state `g`. Edge symbols are the owner NTA's state ids.
  template <typename F>
  void ForEachEdge(int g, F&& f) const {
    const int q = owner[static_cast<std::size_t>(g)];
    const int off = offset[static_cast<std::size_t>(q)];
    for (const auto& [sym, t] :
         nfa[static_cast<std::size_t>(q)]->Edges(g - off)) {
      f(sym, off + t);
    }
  }
};

/// The set of original states q whose horizontal language accepts at the
/// h-state (sorted global-id set) `h`.
std::vector<int> TargetSubset(const HorizontalSpace& sp,
                              std::span<const int> h);

/// Advance the h-state by one child whose possible-state set is `letter`
/// (its members marked over the original Q): accumulates into the caller's
/// (logically empty) scratch and writes the sorted successor h-state into
/// `*out`, leaving the scratch empty again.
void StepH(const HorizontalSpace& sp, std::span<const int> h,
           const ScratchSet& letter, ScratchSet* scratch,
           std::vector<int>* out);

}  // namespace xtc

#endif  // XTC_NTA_HORIZONTAL_SPACE_H_
