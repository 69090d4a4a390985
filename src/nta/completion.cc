#include "src/nta/completion.h"

#include "src/fa/dfa.h"

namespace xtc {

bool IsBottomUpDeterministic(const Nta& nta) {
  for (int a = 0; a < nta.num_symbols(); ++a) {
    for (int q = 0; q < nta.num_states(); ++q) {
      const Nfa* hq = nta.Horizontal(q, a);
      if (hq == nullptr) continue;
      for (int p = q + 1; p < nta.num_states(); ++p) {
        const Nfa* hp = nta.Horizontal(p, a);
        if (hp == nullptr) continue;
        if (!Nfa::Intersection(*hq, *hp).IsEmpty()) return false;
      }
    }
  }
  return true;
}

namespace {

// Union NFA of all horizontal languages for symbol `a` (over num_states
// symbols); empty NFA when none are set.
Nfa HorizontalUnion(const Nta& nta, int a) {
  Nfa acc(nta.num_states());
  bool first = true;
  for (int q = 0; q < nta.num_states(); ++q) {
    const Nfa* h = nta.Horizontal(q, a);
    if (h == nullptr) continue;
    if (first) {
      acc = *h;
      first = false;
    } else {
      acc = Nfa::Union(acc, *h);
    }
  }
  return acc;
}

}  // namespace

bool IsComplete(const Nta& nta) {
  for (int a = 0; a < nta.num_symbols(); ++a) {
    Nfa u = HorizontalUnion(nta, a);
    Dfa d = Dfa::FromNfa(u).Complemented();
    if (!d.IsEmpty()) return false;
  }
  return true;
}

Nta CompletedDeterministic(const Nta& nta) {
  const int n = nta.num_states();
  Nta out(nta.num_symbols(), n + 1);
  for (int q = 0; q < n; ++q) out.SetFinal(q, nta.final(q));
  for (const auto& [key, h] : nta.transitions()) {
    out.SetTransition(key.first, key.second, h.ShiftedSymbols(0, n + 1));
  }
  const int sink = n;
  for (int a = 0; a < nta.num_symbols(); ++a) {
    // delta(sink, a) = (Q ∪ {sink})* minus the union of the existing
    // horizontal languages. Strings mentioning the sink symbol fall into the
    // complement automatically, as no existing language mentions it.
    Nfa u = HorizontalUnion(nta, a).ShiftedSymbols(0, n + 1);
    // Complemented() completes over symbols 0..n before flipping finals.
    out.SetTransition(sink, a, Dfa::FromNfa(u).Complemented().ToNfa());
  }
  return out;
}

}  // namespace xtc
