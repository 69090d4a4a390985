#include "src/core/reachable.h"

#include "src/base/logging.h"
#include "src/schema/witness.h"

namespace xtc {

void StatesInRhs(const RhsHedge& rhs, StateSet* states) {
  for (const RhsNode& n : rhs) {
    switch (n.kind) {
      case RhsNode::Kind::kLabel:
        StatesInRhs(n.children, states);
        break;
      case RhsNode::Kind::kState:
      case RhsNode::Kind::kSelect:
        states->Set(n.state);
        break;
    }
  }
}

int ReachablePairs::Index(int state, int symbol) const {
  return state * din_.num_symbols() + symbol;
}

ReachablePairs::ReachablePairs(const Transducer& t, const Dtd& din)
    : t_(t), din_(din) {
  XTC_CHECK_MSG(!t.HasSelectors(),
                "compile selectors before reachability analysis");
  const int total = t.num_states() * din.num_symbols();
  reachable_.Assign(total, false);
  origin_.assign(static_cast<std::size_t>(total), -1);
  if (din.LanguageEmpty() || t.initial() < 0) return;

  // pairs_ doubles as the BFS queue: new pairs append, `head` walks forward.
  auto visit = [&](int state, int symbol, int origin_pair) {
    int idx = Index(state, symbol);
    if (!reachable_.TestAndSet(idx)) return;
    origin_[static_cast<std::size_t>(idx)] = origin_pair;
    pairs_.emplace_back(state, symbol);
  };
  visit(t.initial(), din.start(), -1);
  StateSet states(t.num_states());
  // UsableChildren(a) depends on a alone: pairs that share a reuse it.
  std::vector<int> children_of(static_cast<std::size_t>(din.num_symbols()), -1);
  std::vector<StateSet> usable;
  for (std::size_t head = 0; head < pairs_.size(); ++head) {
    auto [q, a] = pairs_[head];
    const RhsHedge* rhs = t.rule(q, a);
    if (rhs == nullptr) continue;
    states.Clear();
    StatesInRhs(*rhs, &states);
    int& slot = children_of[static_cast<std::size_t>(a)];
    if (slot == -1) {
      slot = static_cast<int>(usable.size());
      usable.push_back(din.UsableChildren(a));
    }
    const StateSet& children = usable[static_cast<std::size_t>(slot)];
    const int pair_pos = static_cast<int>(head);
    states.ForEach([&](int p) {
      children.ForEach([&](int b) { visit(p, b, pair_pos); });
    });
  }
}

bool ReachablePairs::IsReachable(int state, int symbol) const {
  return reachable_.Test(Index(state, symbol));
}

Node* ReachablePairs::EmbedWitness(int state, int symbol, Node* subtree,
                                   const std::vector<std::uint64_t>& costs,
                                   TreeBuilder* builder) const {
  XTC_CHECK(IsReachable(state, symbol));
  // Recover the symbol chain root -> ... -> (state, symbol).
  std::vector<int> chain;  // symbols from target up to root
  int pos = -1;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    if (pairs_[i] == std::make_pair(state, symbol)) {
      pos = static_cast<int>(i);
      break;
    }
  }
  XTC_CHECK_GE(pos, 0);
  std::vector<int> pair_chain;
  for (int cur = pos; cur != -1;
       cur = origin_[static_cast<std::size_t>(Index(
           pairs_[static_cast<std::size_t>(cur)].first,
           pairs_[static_cast<std::size_t>(cur)].second))]) {
    pair_chain.push_back(cur);
  }
  // pair_chain goes target..root; build top-down.
  Node* current = subtree;
  for (std::size_t i = 0; i + 1 < pair_chain.size(); ++i) {
    int child_symbol =
        pairs_[static_cast<std::size_t>(pair_chain[i])].second;
    int parent_symbol =
        pairs_[static_cast<std::size_t>(pair_chain[i + 1])].second;
    std::optional<std::vector<int>> word =
        din_.UsableWordContaining(parent_symbol, child_symbol);
    XTC_CHECK(word.has_value());
    std::vector<Node*> kids;
    bool placed = false;
    for (int b : *word) {
      if (!placed && b == child_symbol) {
        kids.push_back(current);
        placed = true;
      } else {
        StatusOr<Node*> kid = MinimalValidTree(din_, b, costs, builder,
                                               /*budget=*/nullptr);
        XTC_CHECK_MSG(kid.ok(), kid.status().ToString().c_str());
        kids.push_back(*kid);
      }
    }
    XTC_CHECK(placed);
    current = builder->Make(parent_symbol, kids);
  }
  return current;
}

}  // namespace xtc
