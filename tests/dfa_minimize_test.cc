// Property tests for Dfa::Minimize, the minimizer every rule DFA of a Dtd
// goes through: on seeded random partial DFAs it must keep the language,
// land on exactly the useful classes of the Moore oracle, add no sink, leave
// no useless state, and be a no-op that allocates nothing on a second call.
// The rule DFAs' complete (sink) view and the allocation count of
// Dtd::Compile() are checked here too. The global operator new of this
// binary counts allocations, so it lives in its own test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "src/base/budget.h"
#include "src/fa/alphabet.h"
#include "src/fa/dfa.h"
#include "src/schema/dtd.h"
#include "src/workload/families.h"
#include "tests/moore_oracle.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAllocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocate(n); }
void* operator new[](std::size_t n) { return CountedAllocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xtc {
namespace {

// A partial DFA with `n` states over `symbols` letters: each transition is
// defined with probability `density`, each state final with probability
// 1/3, and the initial state is drawn at random.
Dfa RandomDfa(std::mt19937* rng, int n, int symbols, double density) {
  std::uniform_real_distribution<double> coin(0, 1);
  std::uniform_int_distribution<int> state(0, n - 1);
  Dfa d(symbols);
  for (int s = 0; s < n; ++s) d.AddState(coin(*rng) < 1.0 / 3);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < symbols; ++a) {
      if (coin(*rng) < density) d.SetTransition(s, a, state(*rng));
    }
  }
  d.SetInitial(state(*rng));
  return d;
}

bool SameAutomaton(const Dfa& x, const Dfa& y) {
  if (x.num_states() != y.num_states() || x.num_symbols() != y.num_symbols() ||
      x.initial() != y.initial()) {
    return false;
  }
  for (int s = 0; s < x.num_states(); ++s) {
    if (x.final(s) != y.final(s)) return false;
    for (int a = 0; a < x.num_symbols(); ++a) {
      if (x.Step(s, a) != y.Step(s, a)) return false;
    }
  }
  return true;
}

// States reachable from `from` (forward) or reaching `from` (backward).
std::vector<char> Closure(const Dfa& d, const std::vector<int>& from,
                          bool forward) {
  std::vector<std::vector<int>> next(static_cast<std::size_t>(d.num_states()));
  for (int p = 0; p < d.num_states(); ++p) {
    for (int a = 0; a < d.num_symbols(); ++a) {
      const int q = d.Step(p, a);
      if (q == Dfa::kDead) continue;
      next[static_cast<std::size_t>(forward ? p : q)].push_back(forward ? q
                                                                        : p);
    }
  }
  std::vector<char> seen(static_cast<std::size_t>(d.num_states()), 0);
  std::vector<int> stack = from;
  for (int s : from) seen[static_cast<std::size_t>(s)] = 1;
  while (!stack.empty()) {
    const int q = stack.back();
    stack.pop_back();
    for (int p : next[static_cast<std::size_t>(q)]) {
      if (seen[static_cast<std::size_t>(p)]) continue;
      seen[static_cast<std::size_t>(p)] = 1;
      stack.push_back(p);
    }
  }
  return seen;
}

// The result has no sink and no useless state: every state is reachable
// and reaches a final state. An empty language is one non-final state
// without transitions.
void ExpectTrimmed(const Dfa& m) {
  ASSERT_GE(m.num_states(), 1);
  ASSERT_GE(m.initial(), 0);
  ASSERT_LT(m.initial(), m.num_states());
  std::vector<int> finals;
  for (int s = 0; s < m.num_states(); ++s) {
    if (m.final(s)) finals.push_back(s);
  }
  if (finals.empty()) {
    EXPECT_EQ(m.num_states(), 1);
    for (int a = 0; a < m.num_symbols(); ++a) {
      EXPECT_EQ(m.Step(0, a), Dfa::kDead);
    }
    return;
  }
  const std::vector<char> reachable = Closure(m, {m.initial()}, true);
  const std::vector<char> live = Closure(m, finals, false);
  for (int s = 0; s < m.num_states(); ++s) {
    EXPECT_TRUE(reachable[static_cast<std::size_t>(s)]) << "state " << s;
    EXPECT_TRUE(live[static_cast<std::size_t>(s)]) << "state " << s;
  }
}

// The complete view reads exactly L(d): a stored transition is kept, a
// missing one goes to the sink, and the sink is non-final and loops on
// every symbol. It has as many states as Completed() builds.
void ExpectSinkViewAcceptsTheSameLanguage(const Dfa& d) {
  const int sink = d.sink();
  ASSERT_EQ(sink, d.num_states());
  EXPECT_EQ(d.num_complete_states(), d.Completed().num_states());
  EXPECT_FALSE(d.final(sink));
  for (int s = 0; s < d.num_complete_states(); ++s) {
    for (int a = 0; a < d.num_symbols(); ++a) {
      const int partial = s < sink ? d.Step(s, a) : Dfa::kDead;
      EXPECT_EQ(d.StepComplete(s, a), partial == Dfa::kDead ? sink : partial);
    }
  }
}

class MinimizeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandomTest, MatchesMooreOracleAndIsIdempotent) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()));
  Dfa::MinimizeWorkspace workspace;
  for (int round = 0; round < 40; ++round) {
    const int n = 1 + static_cast<int>(rng() % 12);
    const int symbols = 1 + static_cast<int>(rng() % 4);
    const double density = 0.3 + 0.7 * (rng() % 8) / 7.0;
    const Dfa original = RandomDfa(&rng, n, symbols, density);
    SCOPED_TRACE(::testing::Message() << "round " << round << " n " << n
                                      << " symbols " << symbols);
    Dfa m = original;
    StatusOr<bool> changed = m.Minimize(&workspace);
    ASSERT_TRUE(changed.ok());
    EXPECT_TRUE(m.EquivalentTo(original));
    EXPECT_EQ(m.num_states(),
              std::max(1, UsefulClasses(MooreMinimized(original))));
    if (!*changed) {
      EXPECT_TRUE(SameAutomaton(m, original));
    }
    ExpectTrimmed(m);
    ExpectSinkViewAcceptsTheSameLanguage(original);
    ExpectSinkViewAcceptsTheSameLanguage(m);

    const Dfa once = m;
    const std::uint64_t before = g_allocations.load();
    StatusOr<bool> again = m.Minimize(&workspace);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(*again);
    EXPECT_EQ(allocations, 0u);
    EXPECT_TRUE(SameAutomaton(m, once));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandomTest, ::testing::Range(0, 25));

// Past the workspace's inline buffer: the heap buffer, once grown, serves
// the second call without allocating.
TEST(MinimizeTest, LargeDfaMatchesTheOracleWithAWarmHeapBuffer) {
  std::mt19937 rng(11);
  Dfa::MinimizeWorkspace workspace;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    const Dfa original = RandomDfa(&rng, 300, 4, 0.6);
    Dfa m = original;
    ASSERT_TRUE(m.Minimize(&workspace).ok());
    EXPECT_TRUE(m.EquivalentTo(original));
    EXPECT_EQ(m.num_states(),
              std::max(1, UsefulClasses(MooreMinimized(original))));
    ExpectTrimmed(m);
    const std::uint64_t before = g_allocations.load();
    StatusOr<bool> again = m.Minimize(&workspace);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(*again);
    EXPECT_EQ(allocations, 0u);
  }
}

TEST(MinimizeTest, EpsilonRuleIsAlreadyMinimal) {
  Dfa eps(3);
  eps.SetInitial(eps.AddState(/*final=*/true));
  const Dfa original = eps;
  Dfa::MinimizeWorkspace workspace;
  StatusOr<bool> changed = eps.Minimize(&workspace);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
  EXPECT_TRUE(SameAutomaton(eps, original));
  EXPECT_TRUE(eps.Accepts({}));
}

TEST(MinimizeTest, SingleStateLoopIsAlreadyMinimal) {
  Dfa star(2);
  const int s = star.AddState(/*final=*/true);
  star.SetInitial(s);
  star.SetTransition(s, 0, s);
  star.SetTransition(s, 1, s);
  const Dfa original = star;
  Dfa::MinimizeWorkspace workspace;
  StatusOr<bool> changed = star.Minimize(&workspace);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
  EXPECT_TRUE(SameAutomaton(star, original));
}

TEST(MinimizeTest, EmptyLanguageKeepsAValidInitialState) {
  Dfa::MinimizeWorkspace workspace;
  // States and transitions, but no final state.
  Dfa none(2);
  const int s0 = none.AddState();
  const int s1 = none.AddState();
  none.SetInitial(s0);
  none.SetTransition(s0, 0, s1);
  none.SetTransition(s1, 1, s0);
  StatusOr<bool> changed = none.Minimize(&workspace);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
  EXPECT_EQ(none.num_states(), 1);
  EXPECT_EQ(none.initial(), 0);
  EXPECT_FALSE(none.final(0));
  EXPECT_TRUE(none.IsEmpty());
  ExpectTrimmed(none);
  // A final state that the initial state cannot reach.
  Dfa unreachable(1);
  const int start = unreachable.AddState();
  unreachable.AddState(/*final=*/true);
  unreachable.SetInitial(start);
  ASSERT_TRUE(unreachable.Minimize(&workspace).ok());
  EXPECT_EQ(unreachable.num_states(), 1);
  EXPECT_EQ(unreachable.initial(), 0);
  EXPECT_TRUE(unreachable.IsEmpty());
  // No states at all.
  Dfa nothing(1);
  ASSERT_TRUE(nothing.Minimize(&workspace).ok());
  EXPECT_EQ(nothing.num_states(), 1);
  EXPECT_EQ(nothing.initial(), 0);
  // The canonical empty DFA is a fixed point.
  StatusOr<bool> again = nothing.Minimize(&workspace);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(MinimizeTest, KeepsTheOrderOfSurvivingStates) {
  // (a b)* with a redundant copy of the loop: the classes are numbered by
  // their first member, so the BFS order of a subset construction survives.
  Dfa d(2);
  for (int s = 0; s < 4; ++s) d.AddState(s % 2 == 0);
  d.SetInitial(0);
  d.SetTransition(0, 0, 1);
  d.SetTransition(1, 1, 2);
  d.SetTransition(2, 0, 3);
  d.SetTransition(3, 1, 0);
  Dfa::MinimizeWorkspace workspace;
  ASSERT_TRUE(d.Minimize(&workspace).ok());
  ASSERT_EQ(d.num_states(), 2);
  EXPECT_EQ(d.initial(), 0);
  EXPECT_TRUE(d.final(0));
  EXPECT_EQ(d.Step(0, 0), 1);
  EXPECT_EQ(d.Step(1, 1), 0);
}

// An injected fault at any checkpoint inside the minimizer fails softly and
// leaves the DFA as it was.
TEST(MinimizeTest, InjectedFaultLeavesTheDfaUntouched) {
  std::mt19937 rng(7);
  const Dfa original = RandomDfa(&rng, 12, 3, 1.0);
  int injected = 0;
  for (std::uint64_t n = 1;; ++n) {
    Budget budget;
    budget.set_fail_at_checkpoint(n);
    Dfa d = original;
    Dfa::MinimizeWorkspace workspace;
    StatusOr<bool> changed = d.Minimize(&workspace, &budget);
    if (budget.cause() != ExhaustionCause::kInjected) {
      ASSERT_TRUE(changed.ok());
      break;
    }
    ++injected;
    ASSERT_FALSE(changed.ok());
    EXPECT_EQ(changed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(SameAutomaton(d, original)) << "n=" << n;
  }
  // The entry checkpoint plus one per splitter.
  EXPECT_GT(injected, 1);
}

// A Dtd's rule DFAs are minimal on both paths: the lazy RuleDfa() and
// Compile(), including a SetRuleDfa rule, and a faulted Compile() can be
// retried.
TEST(MinimizeTest, DtdHandsOutMinimalRuleDfasOnBothPaths) {
  Alphabet alphabet;
  const int a = alphabet.Intern("a");
  const int b = alphabet.Intern("b");
  const int r = alphabet.Intern("r");
  // a* with two copies of the loop state and a dead state.
  Dfa redundant(alphabet.size());
  for (int s = 0; s < 3; ++s) redundant.AddState(s < 2);
  redundant.SetInitial(0);
  redundant.SetTransition(0, a, 1);
  redundant.SetTransition(1, a, 0);
  redundant.SetTransition(1, b, 2);
  auto make = [&] {
    Dtd dtd(&alphabet, r);
    dtd.SetRuleDfa(r, redundant);
    EXPECT_TRUE(dtd.SetRule("a", "(a | b)* b").ok());
    return dtd;
  };
  Dtd lazy = make();
  Dtd compiled = make();
  int faults = 0;
  for (std::uint64_t n = 1;; ++n) {
    Budget budget;
    budget.set_fail_at_checkpoint(n);
    Status s = compiled.Compile(&budget);
    if (budget.cause() != ExhaustionCause::kInjected) {
      ASSERT_TRUE(s.ok());
      break;
    }
    ++faults;
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(compiled.IsCompiled());
  }
  EXPECT_GT(faults, 0);
  ASSERT_TRUE(compiled.IsCompiled());
  for (int sym : {a, b, r}) {
    SCOPED_TRACE(sym);
    const Dfa& via_lazy = lazy.RuleDfa(sym);
    const Dfa& via_compile = compiled.RuleDfa(sym);
    EXPECT_TRUE(SameAutomaton(via_lazy, via_compile));
    EXPECT_EQ(via_lazy.num_states(),
              std::max(1, UsefulClasses(MooreMinimized(via_lazy))));
    ExpectTrimmed(via_compile);
    ExpectSinkViewAcceptsTheSameLanguage(via_compile);
  }
  EXPECT_EQ(compiled.RuleDfa(r).num_states(), 1);
  EXPECT_EQ(compiled.RuleDfa(a).num_states(), 2);
}

// Dtd::Compile() stores each rule once, as one flat transition table, so
// compiling both schemas of a family stays under a fixed allocation count.
TEST(MinimizeTest, CompileAllocationsAreCapped) {
  struct Case {
    const char* name;
    PaperExample (*make)();
    std::uint64_t cap;
  };
  const Case cases[] = {
      {"FilterFamily(10)", [] { return FilterFamily(10); }, 218},
      {"RePlusDeletingFamily(11,8)",
       [] { return RePlusDeletingFamily(11, 8, /*failing=*/false); }, 110},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PaperExample ex = c.make();
    const std::uint64_t before = g_allocations.load();
    ASSERT_TRUE(ex.din->Compile().ok());
    ASSERT_TRUE(ex.dout->Compile().ok());
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_LE(allocations, c.cap);
  }
}

}  // namespace
}  // namespace xtc
