#include "src/fa/dfa_reach.h"

namespace xtc {

const StateSet& DfaReachability::From(int state) {
  StateSet& cached = from_[static_cast<std::size_t>(state)];
  if (cached.size_bits() != 0) return cached;
  StateSet seen(dfa_->num_complete_states());
  seen.Set(state);
  std::vector<int> frontier = {state};
  while (!frontier.empty()) {
    const int s = frontier.back();
    frontier.pop_back();
    for (int a = 0; a < dfa_->num_symbols(); ++a) {
      const int t = dfa_->StepComplete(s, a);
      if (seen.Test(t)) continue;
      seen.Set(t);
      frontier.push_back(t);
    }
  }
  cached = std::move(seen);
  return cached;
}

}  // namespace xtc
