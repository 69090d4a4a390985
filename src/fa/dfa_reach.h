#ifndef XTC_FA_DFA_REACH_H_
#define XTC_FA_DFA_REACH_H_

#include <vector>

#include "src/base/state_set.h"
#include "src/fa/dfa.h"

namespace xtc {

/// Demand-driven reachability over a DFA's complete view, sink included:
/// From(s) is the set of states reachable from s by any symbol sequence
/// (including s itself), computed by BFS on first request and memoized per
/// source. The Lemma 14 engines use this to enumerate only horizontally
/// *reachable* target states when guessing obligations against an output
/// rule DFA, instead of sweeping every state of the rule — the horizontal
/// counterpart of the lazy vertical frontier in src/nta/lazy.h.
///
/// Borrows the DFA; the caller keeps it alive and unchanged. Thread
/// ownership follows SubsetInterner: one owner thread, no concurrent use
/// (src/base/README.md).
class DfaReachability {
 public:
  explicit DfaReachability(const Dfa* dfa)
      : dfa_(dfa),
        from_(static_cast<std::size_t>(dfa->num_complete_states())) {}

  /// The reachable-state set of `state`. The reference is valid until the
  /// next From() call on a different source.
  const StateSet& From(int state);

 private:
  const Dfa* dfa_;
  std::vector<StateSet> from_;  ///< empty num_bits-0 sets until computed
};

}  // namespace xtc

#endif  // XTC_FA_DFA_REACH_H_
