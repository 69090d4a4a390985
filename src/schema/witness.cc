#include "src/schema/witness.h"

#include <algorithm>
#include <functional>

#include "src/base/logging.h"

namespace xtc {
namespace {

// Saturating addition on tree-size costs.
uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a == kInfiniteCost || b == kInfiniteCost) return kInfiniteCost;
  uint64_t s = a + b;
  return s < a ? kInfiniteCost : s;
}

// Dijkstra buffers reused across CheapestWord calls: a MinimalTreeCosts
// run calls it once per symbol per fixpoint pass.
struct CheapestWordScratch {
  using Item = std::pair<uint64_t, int>;
  std::vector<uint64_t> dist;
  std::vector<std::pair<int, int>> pred;
  std::vector<Item> heap;  // min-heap under std::greater
};

// Minimal total symbol-cost of a word accepted by `nfa`, where letter s
// costs costs[s]; also returns such a word when `word` is non-null.
// Dijkstra over NFA states.
uint64_t CheapestWord(const Nfa& nfa, const std::vector<uint64_t>& costs,
                      CheapestWordScratch* scratch, std::vector<int>* word) {
  const uint64_t kInf = kInfiniteCost;
  std::vector<uint64_t>& dist = scratch->dist;
  std::vector<std::pair<int, int>>& pred = scratch->pred;
  std::vector<CheapestWordScratch::Item>& heap = scratch->heap;
  dist.assign(static_cast<std::size_t>(nfa.num_states()), kInf);
  pred.assign(static_cast<std::size_t>(nfa.num_states()), {-1, -1});
  heap.clear();
  auto push = [&](uint64_t d, int s) {
    heap.emplace_back(d, s);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  for (int s = 0; s < nfa.num_states(); ++s) {
    if (nfa.initial(s)) {
      dist[static_cast<std::size_t>(s)] = 0;
      push(0, s);
    }
  }
  int best_final = -1;
  uint64_t best = kInf;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [d, s] = heap.back();
    heap.pop_back();
    if (d != dist[static_cast<std::size_t>(s)]) continue;
    if (nfa.final(s)) {
      best_final = s;
      best = d;
      break;  // Dijkstra: first settled final is cheapest.
    }
    for (const auto& [sym, t] : nfa.Edges(s)) {
      uint64_t c = costs[static_cast<std::size_t>(sym)];
      if (c == kInf) continue;
      uint64_t nd = SatAdd(d, c);
      if (nd < dist[static_cast<std::size_t>(t)]) {
        dist[static_cast<std::size_t>(t)] = nd;
        pred[static_cast<std::size_t>(t)] = {s, sym};
        push(nd, t);
      }
    }
  }
  if (best_final == -1) return kInf;
  if (word != nullptr) {
    word->clear();
    for (int cur = best_final; pred[static_cast<std::size_t>(cur)].first != -1;
         cur = pred[static_cast<std::size_t>(cur)].first) {
      word->push_back(pred[static_cast<std::size_t>(cur)].second);
    }
    std::reverse(word->begin(), word->end());
  }
  return best;
}

}  // namespace

std::vector<uint64_t> MinimalTreeCosts(const Dtd& dtd) {
  return *MinimalTreeCosts(dtd, nullptr);
}

StatusOr<std::vector<uint64_t>> MinimalTreeCosts(const Dtd& dtd,
                                                 Budget* budget) {
  const int n = dtd.num_symbols();
  std::vector<uint64_t> costs(static_cast<std::size_t>(n), kInfiniteCost);
  CheapestWordScratch scratch;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int s = 0; s < n; ++s) {
      XTC_RETURN_IF_ERROR(BudgetCheck(budget, "MinimalTreeCosts"));
      uint64_t w = CheapestWord(dtd.RuleNfa(s), costs, &scratch, nullptr);
      uint64_t c = SatAdd(1, w);
      if (c < costs[static_cast<std::size_t>(s)]) {
        costs[static_cast<std::size_t>(s)] = c;
        changed = true;
      }
    }
  }
  return costs;
}

namespace {

StatusOr<Node*> MinimalTreeRec(const Dtd& dtd, int symbol,
                               const std::vector<uint64_t>& costs,
                               CheapestWordScratch* scratch,
                               TreeBuilder* builder, Budget* budget) {
  XTC_RETURN_IF_ERROR(BudgetCheck(budget, "MinimalValidTree"));
  std::vector<int> word;
  uint64_t w = CheapestWord(dtd.RuleNfa(symbol), costs, scratch, &word);
  XTC_CHECK_MSG(w != kInfiniteCost, "symbol is not inhabited");
  std::vector<Node*> kids;
  kids.reserve(word.size());
  for (int c : word) {
    XTC_ASSIGN_OR_RETURN(
        Node * kid, MinimalTreeRec(dtd, c, costs, scratch, builder, budget));
    kids.push_back(kid);
  }
  return builder->Make(symbol, kids);
}

}  // namespace

Node* MinimalValidTree(const Dtd& dtd, int symbol, TreeBuilder* builder) {
  StatusOr<Node*> tree = MinimalValidTree(dtd, symbol, builder, nullptr);
  XTC_CHECK_MSG(tree.ok(), tree.status().ToString().c_str());
  return *tree;
}

StatusOr<Node*> MinimalValidTree(const Dtd& dtd, int symbol,
                                 TreeBuilder* builder, Budget* budget) {
  XTC_ASSIGN_OR_RETURN(std::vector<uint64_t> costs,
                       MinimalTreeCosts(dtd, budget));
  return MinimalValidTree(dtd, symbol, costs, builder, budget);
}

StatusOr<Node*> MinimalValidTree(const Dtd& dtd, int symbol,
                                 const std::vector<uint64_t>& costs,
                                 TreeBuilder* builder, Budget* budget) {
  if (costs[static_cast<std::size_t>(symbol)] == kInfiniteCost) {
    return FailedPreconditionError("symbol is not inhabited");
  }
  CheapestWordScratch scratch;
  return MinimalTreeRec(dtd, symbol, costs, &scratch, builder, budget);
}

namespace {

// Builds t_min / t_vast for `symbol`, detecting recursive (hence
// uninhabited) symbols via the `visiting` mark.
void BuildWitnessRec(const Dtd& dtd, int symbol, RePlusWitnesses* out,
                     std::vector<char>* visiting) {
  if (out->t_min[static_cast<std::size_t>(symbol)] != -2) return;  // done
  if ((*visiting)[static_cast<std::size_t>(symbol)]) {
    out->t_min[static_cast<std::size_t>(symbol)] = -1;
    out->t_vast[static_cast<std::size_t>(symbol)] = -1;
    return;
  }
  (*visiting)[static_cast<std::size_t>(symbol)] = 1;
  const RePlus* rp = dtd.RuleRePlus(symbol);
  XTC_CHECK(rp != nullptr);
  std::vector<int> min_kids;
  std::vector<int> vast_kids;
  bool inhabited = true;
  for (const RePlus::Factor& f : rp->factors()) {
    BuildWitnessRec(dtd, f.symbol, out, visiting);
    int cmin = out->t_min[static_cast<std::size_t>(f.symbol)];
    int cvast = out->t_vast[static_cast<std::size_t>(f.symbol)];
    if (cmin == -1) {
      inhabited = false;
      break;
    }
    min_kids.push_back(cmin);
    vast_kids.push_back(cvast);
    if (f.plus) vast_kids.push_back(cvast);
  }
  (*visiting)[static_cast<std::size_t>(symbol)] = 0;
  if (!inhabited) {
    out->t_min[static_cast<std::size_t>(symbol)] = -1;
    out->t_vast[static_cast<std::size_t>(symbol)] = -1;
    return;
  }
  out->t_min[static_cast<std::size_t>(symbol)] =
      out->forest.Make(symbol, min_kids);
  out->t_vast[static_cast<std::size_t>(symbol)] =
      out->forest.Make(symbol, vast_kids);
}

}  // namespace

StatusOr<RePlusWitnesses> BuildRePlusWitnesses(const Dtd& dtd) {
  if (!dtd.IsRePlusDtd()) {
    return FailedPreconditionError("DTD is not a DTD(RE+)");
  }
  RePlusWitnesses out;
  const std::size_t n = static_cast<std::size_t>(dtd.num_symbols());
  out.t_min.assign(n, -2);
  out.t_vast.assign(n, -2);
  std::vector<char> visiting(n, 0);
  for (int s = 0; s < dtd.num_symbols(); ++s) {
    BuildWitnessRec(dtd, s, &out, &visiting);
  }
  return out;
}

}  // namespace xtc
