#ifndef XTC_CORE_REACHABLE_H_
#define XTC_CORE_REACHABLE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/state_set.h"
#include "src/schema/dtd.h"
#include "src/td/transducer.h"
#include "src/tree/tree.h"

namespace xtc {

/// The (state, symbol) pairs (q, a) such that some tree in L(d_in) has an
/// a-labelled node processed by the transducer in state q (Section 5
/// terminology, also the backbone of the Lemma 14 engine). Witness
/// back-pointers support embedding counterexample subtrees into valid
/// contexts (Corollary 38).
class ReachablePairs {
 public:
  /// `t` must be selector-free (compile selectors first).
  ReachablePairs(const Transducer& t, const Dtd& din);

  bool IsReachable(int state, int symbol) const;

  /// All reachable pairs in discovery (BFS) order.
  const std::vector<std::pair<int, int>>& pairs() const { return pairs_; }

  /// Builds a tree of L(d_in) in which the node at the witness position of
  /// (state, symbol) is replaced by `subtree` (whose root must be labelled
  /// `symbol` for the result to satisfy d_in). The pair must be reachable.
  /// `costs` is MinimalTreeCosts(d_in); the siblings along the path are
  /// smallest trees against it.
  Node* EmbedWitness(int state, int symbol, Node* subtree,
                     const std::vector<std::uint64_t>& costs,
                     TreeBuilder* builder) const;

 private:
  int Index(int state, int symbol) const;

  const Transducer& t_;
  const Dtd& din_;
  StateSet reachable_;
  std::vector<int> origin_;  // index of parent pair, -1 for the root pair
  std::vector<std::pair<int, int>> pairs_;
};

/// Collects the states occurring anywhere in a template hedge.
void StatesInRhs(const RhsHedge& rhs, StateSet* states);

}  // namespace xtc

#endif  // XTC_CORE_REACHABLE_H_
