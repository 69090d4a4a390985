#include "src/nta/product.h"

#include <cstdint>
#include <limits>

#include "src/base/logging.h"

namespace xtc {

Nta Intersect(const Nta& a, const Nta& b) {
  return *Intersect(a, b, nullptr);
}

StatusOr<Nta> Intersect(const Nta& a, const Nta& b, Budget* budget) {
  XTC_CHECK_EQ(a.num_symbols(), b.num_symbols());
  const int na = a.num_states();
  const int nb = b.num_states();
  if (static_cast<std::int64_t>(na) * nb > std::numeric_limits<int>::max()) {
    return ResourceExhaustedError("Intersect: product state count overflows");
  }
  XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Intersect"));
  Nta out(a.num_symbols(), na * nb);
  for (int qa = 0; qa < na; ++qa) {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Intersect"));
    for (int qb = 0; qb < nb; ++qb) {
      if (a.final(qa) && b.final(qb)) out.SetFinal(qa * nb + qb);
    }
  }
  for (int sym = 0; sym < a.num_symbols(); ++sym) {
    for (int qa = 0; qa < na; ++qa) {
      const Nfa* ha = a.Horizontal(qa, sym);
      if (ha == nullptr) continue;
      for (int qb = 0; qb < nb; ++qb) {
        const Nfa* hb = b.Horizontal(qb, sym);
        if (hb == nullptr) continue;
        XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Intersect"));
        // Product of the horizontal NFAs reading paired child states.
        Nfa h(na * nb);
        const int mb = hb->num_states();
        h.ReserveStates(ha->num_states() * mb);
        for (int sa = 0; sa < ha->num_states(); ++sa) {
          for (int sb = 0; sb < mb; ++sb) {
            h.AddState(ha->initial(sa) && hb->initial(sb),
                       ha->final(sa) && hb->final(sb));
          }
        }
        for (int sa = 0; sa < ha->num_states(); ++sa) {
          const auto& ea = ha->Edges(sa);
          if (ea.empty()) continue;
          for (int sb = 0; sb < mb; ++sb) {
            const auto& eb = hb->Edges(sb);
            if (eb.empty()) continue;
            XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Intersect"));
            // Fill the whole product row at once; AddTransition's per-edge
            // bounds checks would dominate the build otherwise.
            auto& row = h.MutableEdges(sa * mb + sb);
            row.reserve(ea.size() * eb.size());
            for (const auto& [ca, ta] : ea) {
              for (const auto& [cb, tb] : eb) {
                row.emplace_back(ca * nb + cb, ta * mb + tb);
              }
            }
          }
        }
        out.SetTransition(qa * nb + qb, sym, std::move(h));
      }
    }
  }
  return out;
}

Nta DisjointUnion(const Nta& a, const Nta& b) {
  XTC_CHECK_EQ(a.num_symbols(), b.num_symbols());
  const int na = a.num_states();
  const int nb = b.num_states();
  Nta out(a.num_symbols(), na + nb);
  for (int q = 0; q < na; ++q) out.SetFinal(q, a.final(q));
  for (int q = 0; q < nb; ++q) out.SetFinal(na + q, b.final(q));
  for (const auto& [key, h] : a.transitions()) {
    out.SetTransition(key.first, key.second, h.ShiftedSymbols(0, na + nb));
  }
  for (const auto& [key, h] : b.transitions()) {
    out.SetTransition(na + key.first, key.second,
                      h.ShiftedSymbols(na, na + nb));
  }
  return out;
}

}  // namespace xtc
