#include "src/nta/horizontal_space.h"

#include <algorithm>

namespace xtc {

HorizontalSpace HorizontalSpace::Build(const Nta& nta, int a) {
  HorizontalSpace sp;
  sp.offset.assign(static_cast<std::size_t>(nta.num_states()), -1);
  sp.nfa.assign(static_cast<std::size_t>(nta.num_states()), nullptr);
  std::size_t total_states = 0;
  for (int q = 0; q < nta.num_states(); ++q) {
    const Nfa* h = nta.Horizontal(q, a);
    if (h != nullptr) total_states += static_cast<std::size_t>(h->num_states());
  }
  sp.owner.reserve(total_states);
  for (int q = 0; q < nta.num_states(); ++q) {
    const Nfa* h = nta.Horizontal(q, a);
    if (h == nullptr) continue;
    sp.offset[static_cast<std::size_t>(q)] = sp.total;
    sp.nfa[static_cast<std::size_t>(q)] = h;
    for (int s = 0; s < h->num_states(); ++s) {
      sp.owner.push_back(q);
      if (h->initial(s)) sp.initials.push_back(sp.total + s);
      if (h->final(s)) sp.finals.emplace_back(sp.total + s, q);
    }
    sp.total += h->num_states();
  }
  std::sort(sp.initials.begin(), sp.initials.end());
  sp.final_mask.Resize(sp.total);
  for (const auto& [g, q] : sp.finals) sp.final_mask.Set(g);
  return sp;
}

std::vector<int> TargetSubset(const HorizontalSpace& sp,
                              std::span<const int> h) {
  std::vector<int> subset;
  for (const auto& [g, q] : sp.finals) {
    if (std::binary_search(h.begin(), h.end(), g)) subset.push_back(q);
  }
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  return subset;
}

void StepH(const HorizontalSpace& sp, std::span<const int> h,
           const ScratchSet& letter, ScratchSet* scratch,
           std::vector<int>* out) {
  scratch->EnsureUniverse(sp.total);
  for (int g : h) {
    sp.ForEachEdge(g, [&](int sym, int to) {
      if (letter.Test(sym)) scratch->Add(to);
    });
  }
  scratch->ExtractSortedAndClear(out);
}

}  // namespace xtc
