// Test oracle for DFA minimization: textbook Moore partition refinement on
// the completed DFA. Production code minimizes with Dfa::Minimize (partial,
// trimmed, in place); the tests check it against this independent
// construction.

#ifndef XTC_TESTS_MOORE_ORACLE_H_
#define XTC_TESTS_MOORE_ORACLE_H_

#include <algorithm>
#include <vector>

#include "src/base/interner.h"
#include "src/fa/dfa.h"

namespace xtc {

// The minimal complete DFA of L(d) over the states reachable from its
// initial state; a dead class, if any, is kept as a sink.
inline Dfa MooreMinimized(const Dfa& d) {
  const Dfa c = d.Completed();
  std::vector<int> order{c.initial()};
  std::vector<int> index(static_cast<std::size_t>(c.num_states()), -1);
  index[static_cast<std::size_t>(c.initial())] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (int a = 0; a < c.num_symbols(); ++a) {
      const int t = c.Step(order[i], a);
      if (index[static_cast<std::size_t>(t)] == -1) {
        index[static_cast<std::size_t>(t)] = static_cast<int>(order.size());
        order.push_back(t);
      }
    }
  }
  const int n = static_cast<int>(order.size());
  auto target = [&](const std::vector<int>& cls, int i, int a) {
    return cls[static_cast<std::size_t>(
        index[static_cast<std::size_t>(c.Step(order[i], a))])];
  };
  std::vector<int> cls(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) cls[i] = c.final(order[i]) ? 1 : 0;
  while (true) {
    SubsetInterner signatures;
    std::vector<int> next(static_cast<std::size_t>(n));
    std::vector<int> sig;
    for (int i = 0; i < n; ++i) {
      sig.assign(1, cls[static_cast<std::size_t>(i)]);
      for (int a = 0; a < c.num_symbols(); ++a) {
        sig.push_back(target(cls, i, a));
      }
      next[static_cast<std::size_t>(i)] = signatures.Intern(sig);
    }
    if (next == cls) break;
    cls = std::move(next);
  }
  const int classes = *std::max_element(cls.begin(), cls.end()) + 1;
  Dfa out(c.num_symbols());
  for (int k = 0; k < classes; ++k) out.AddState(false);
  for (int i = 0; i < n; ++i) {
    if (c.final(order[i])) out.SetFinal(cls[static_cast<std::size_t>(i)]);
    for (int a = 0; a < c.num_symbols(); ++a) {
      out.SetTransition(cls[static_cast<std::size_t>(i)], a,
                        target(cls, i, a));
    }
  }
  out.SetInitial(cls[0]);
  return out;
}

// The classes of a Moore-minimal DFA that lie on a path to a final state:
// every class but the dead one.
inline int UsefulClasses(const Dfa& minimal) {
  int useful = 0;
  for (int s = 0; s < minimal.num_states(); ++s) {
    std::vector<char> seen(static_cast<std::size_t>(minimal.num_states()), 0);
    std::vector<int> stack{s};
    seen[static_cast<std::size_t>(s)] = 1;
    bool live = false;
    while (!stack.empty() && !live) {
      const int q = stack.back();
      stack.pop_back();
      live = minimal.final(q);
      for (int a = 0; a < minimal.num_symbols(); ++a) {
        const int t = minimal.Step(q, a);
        if (t != Dfa::kDead && !seen[static_cast<std::size_t>(t)]) {
          seen[static_cast<std::size_t>(t)] = 1;
          stack.push_back(t);
        }
      }
    }
    if (live) ++useful;
  }
  return useful;
}

}  // namespace xtc

#endif  // XTC_TESTS_MOORE_ORACLE_H_
