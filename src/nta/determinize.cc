#include "src/nta/determinize.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/interner.h"
#include "src/base/logging.h"
#include "src/base/state_set.h"
#include "src/nta/horizontal_space.h"

namespace xtc {

StatusOr<Nta> DeterminizeToDtac(const Nta& nta, int max_states,
                                Budget* budget) {
  const int num_symbols = nta.num_symbols();
  std::vector<HorizontalSpace> spaces;
  spaces.reserve(static_cast<std::size_t>(num_symbols));
  for (int a = 0; a < num_symbols; ++a) {
    spaces.push_back(HorizontalSpace::Build(nta, a));
  }

  // Interned determinized states (subsets of Q), hashed; interner ids are
  // dense so they double as DTA state ids. StepH tests letter membership
  // against `letter`, which holds one det state's members at a time.
  SubsetInterner det_ids;
  std::vector<std::vector<int>> det_states;
  auto intern_det = [&](std::vector<int> subset) {
    int id = det_ids.Intern(subset);
    if (id < static_cast<int>(det_states.size())) return id;
    det_states.push_back(std::move(subset));
    return id;
  };
  ScratchSet letter;
  letter.EnsureUniverse(nta.num_states());
  ScratchSet scratch;
  std::vector<int> step_buf;

  // Per symbol: interned h-states and their transition rows (indexed by
  // det-state id; -1 means "not yet computed").
  struct HGraph {
    SubsetInterner ids;
    std::vector<std::vector<int>> states;
    std::vector<std::vector<int>> trans;  // trans[h][det_id] = h'
    std::vector<int> target;              // det id of TargetSubset
  };
  std::vector<HGraph> graphs(static_cast<std::size_t>(num_symbols));

  auto intern_h = [&](int a, std::vector<int> h) {
    HGraph& g = graphs[static_cast<std::size_t>(a)];
    int id = g.ids.Intern(h);
    if (id < static_cast<int>(g.states.size())) return id;
    g.target.push_back(
        intern_det(TargetSubset(spaces[static_cast<std::size_t>(a)], h)));
    g.states.push_back(std::move(h));
    g.trans.emplace_back();
    return id;
  };

  for (int a = 0; a < num_symbols; ++a) {
    intern_h(a, spaces[static_cast<std::size_t>(a)].initials);
  }

  // Saturate: new h-states can mint new det states, which extend every
  // H-graph's alphabet, so loop until nothing changes.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int a = 0; a < num_symbols; ++a) {
      HGraph& g = graphs[static_cast<std::size_t>(a)];
      for (std::size_t h = 0; h < g.states.size(); ++h) {
        g.trans[h].resize(det_states.size(), -1);
        for (std::size_t s = 0; s < det_states.size(); ++s) {
          if (g.trans[h][s] != -1) continue;
          XTC_RETURN_IF_ERROR(BudgetCheck(budget, "DeterminizeToDtac"));
          for (const int q : det_states[s]) letter.Add(q);
          StepH(spaces[static_cast<std::size_t>(a)], g.states[h], letter,
                &scratch, &step_buf);
          letter.Clear();
          int hid = intern_h(a, step_buf);
          g.trans[h].resize(det_states.size(), -1);  // intern may grow dets
          g.trans[h][s] = hid;
          changed = true;
          // 64-bit product: max_states * |Q| overflows int on large
          // universes.
          if (static_cast<int>(det_states.size()) > max_states ||
              static_cast<std::int64_t>(g.states.size()) >
                  std::int64_t{max_states} * std::max(1, nta.num_states())) {
            return ResourceExhaustedError(
                "NTA determinization exceeded the state budget");
          }
        }
      }
    }
  }

  const int n_det = static_cast<int>(det_states.size());
  Nta out(num_symbols, n_det);
  for (int s = 0; s < n_det; ++s) {
    for (int q : det_states[static_cast<std::size_t>(s)]) {
      if (nta.final(q)) {
        out.SetFinal(s);
        break;
      }
    }
  }
  for (int a = 0; a < num_symbols; ++a) {
    const HGraph& g = graphs[static_cast<std::size_t>(a)];
    // One shared transition structure; finals select the target det state.
    for (int s = 0; s < n_det; ++s) {
      bool any_final = false;
      Nfa h(n_det);
      h.ReserveStates(static_cast<int>(g.states.size()));
      for (std::size_t hs = 0; hs < g.states.size(); ++hs) {
        bool is_final = g.target[hs] == s;
        any_final = any_final || is_final;
        h.AddState(hs == 0, is_final);
      }
      if (!any_final) continue;  // empty horizontal language
      for (std::size_t hs = 0; hs < g.states.size(); ++hs) {
        h.ReserveEdges(static_cast<int>(hs), static_cast<std::size_t>(n_det));
        for (int sym = 0; sym < n_det; ++sym) {
          int t = g.trans[hs][static_cast<std::size_t>(sym)];
          XTC_CHECK_GE(t, 0);
          h.AddTransition(static_cast<int>(hs), sym, t);
        }
      }
      out.SetTransition(s, a, std::move(h));
    }
  }
  return out;
}

}  // namespace xtc
