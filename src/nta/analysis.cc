#include "src/nta/analysis.h"

#include <algorithm>

#include "src/base/logging.h"

namespace xtc {

StateSet ReachableStates(const Nta& nta) {
  return *ReachableStates(nta, nullptr);
}

StatusOr<StateSet> ReachableStates(const Nta& nta, Budget* budget) {
  // Fig. A.1: R_1 = {q | epsilon in delta(q, a)}; R_i adds q whenever
  // delta(q, a) meets R_{i-1}^*. We iterate to the fixpoint directly.
  StateSet reached(nta.num_states());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [key, h] : nta.transitions()) {
      XTC_RETURN_IF_ERROR(BudgetCheck(budget, "ReachableStates"));
      int q = key.first;
      if (reached.Test(q)) continue;
      if (h.AcceptsSomeOver(&reached)) {
        reached.Set(q);
        changed = true;
      }
    }
  }
  return reached;
}

bool IsEmptyLanguage(const Nta& nta) { return *IsEmptyLanguage(nta, nullptr); }

StatusOr<bool> IsEmptyLanguage(const Nta& nta, Budget* budget) {
  XTC_ASSIGN_OR_RETURN(StateSet reached, ReachableStates(nta, budget));
  for (int q = 0; q < nta.num_states(); ++q) {
    if (reached.Test(q) && nta.final(q)) return false;
  }
  return true;
}

std::optional<int> WitnessTree(const Nta& nta, SharedForest* forest,
                               std::vector<int>* per_state_ids) {
  return *WitnessTree(nta, forest, per_state_ids, nullptr);
}

StatusOr<std::optional<int>> WitnessTree(const Nta& nta, SharedForest* forest,
                                         std::vector<int>* per_state_ids,
                                         Budget* budget) {
  // Re-run the reachability fixpoint remembering, for each newly reached
  // state, the symbol and child-state word that witnessed it; build the
  // hash-consed witness trees bottom-up as states get settled.
  std::vector<int> ids(static_cast<std::size_t>(nta.num_states()), -1);
  StateSet reached(nta.num_states());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [key, h] : nta.transitions()) {
      XTC_RETURN_IF_ERROR(BudgetCheck(budget, "WitnessTree"));
      auto [q, a] = key;
      if (reached.Test(q)) continue;
      std::optional<std::vector<int>> word = h.ShortestAcceptedOver(&reached);
      if (!word.has_value()) continue;
      std::vector<int> kids;
      kids.reserve(word->size());
      for (int child_state : *word) {
        int cid = ids[static_cast<std::size_t>(child_state)];
        XTC_CHECK_GE(cid, 0);
        kids.push_back(cid);
      }
      ids[static_cast<std::size_t>(q)] = forest->Make(a, kids);
      reached.Set(q);
      changed = true;
    }
  }
  if (per_state_ids != nullptr) *per_state_ids = ids;
  for (int q = 0; q < nta.num_states(); ++q) {
    if (reached.Test(q) && nta.final(q)) {
      return std::optional<int>(ids[static_cast<std::size_t>(q)]);
    }
  }
  return std::optional<int>();
}

namespace {

// States that can occur in an accepting run: reachable (inhabited below)
// and co-reachable (extendable above to a final root).
StateSet UsefulStates(const Nta& nta, const StateSet& reached) {
  StateSet co(nta.num_states());
  for (int q = 0; q < nta.num_states(); ++q) {
    if (nta.final(q) && reached.Test(q)) co.Set(q);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [key, h] : nta.transitions()) {
      int p = key.first;
      if (!co.Test(p) || !reached.Test(p)) continue;
      StateSet used = h.SymbolsOnAcceptingPaths(&reached);
      // Word-parallel: fold the whole used-set in and detect growth.
      if (co.UnionWith(used)) changed = true;
    }
  }
  StateSet useful = reached;
  useful.IntersectWith(co);
  return useful;
}

}  // namespace

bool IsFiniteLanguage(const Nta& nta) {
  return *IsFiniteLanguage(nta, nullptr);
}

StatusOr<bool> IsFiniteLanguage(const Nta& nta, Budget* budget) {
  XTC_ASSIGN_OR_RETURN(StateSet reached, ReachableStates(nta, budget));
  StateSet useful = UsefulStates(nta, reached);

  // Horizontal pumping: a useful state with infinitely many usable child
  // strings.
  for (const auto& [key, h] : nta.transitions()) {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget, "IsFiniteLanguage"));
    int q = key.first;
    if (!useful.Test(q)) continue;
    if (h.AcceptsInfinitelyManyOver(&reached)) return false;
  }

  // Vertical pumping: cycle in the occurs-in-derivation graph restricted to
  // useful states.
  std::vector<std::vector<int>> adj(
      static_cast<std::size_t>(nta.num_states()));
  for (const auto& [key, h] : nta.transitions()) {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget, "IsFiniteLanguage"));
    int p = key.first;
    if (!useful.Test(p)) continue;
    StateSet used = h.SymbolsOnAcceptingPaths(&reached);
    used.IntersectWith(useful);
    used.ForEach(
        [&](int q) { adj[static_cast<std::size_t>(p)].push_back(q); });
  }
  enum : char { kWhite, kGray, kBlack };
  std::vector<char> color(static_cast<std::size_t>(nta.num_states()), kWhite);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int root = 0; root < nta.num_states(); ++root) {
    if (!useful.Test(root) ||
        color[static_cast<std::size_t>(root)] != kWhite) {
      continue;
    }
    color[static_cast<std::size_t>(root)] = kGray;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [s, idx] = stack.back();
      if (idx < adj[static_cast<std::size_t>(s)].size()) {
        int t = adj[static_cast<std::size_t>(s)][idx++];
        if (color[static_cast<std::size_t>(t)] == kGray) return false;
        if (color[static_cast<std::size_t>(t)] == kWhite) {
          color[static_cast<std::size_t>(t)] = kGray;
          stack.emplace_back(t, 0);
        }
      } else {
        color[static_cast<std::size_t>(s)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return true;
}

Nta ComplementedDtac(const Nta& nta) {
  Nta out = nta;
  for (int q = 0; q < nta.num_states(); ++q) {
    out.SetFinal(q, !nta.final(q));
  }
  return out;
}

}  // namespace xtc
