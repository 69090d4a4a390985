// Differential properties of the lazy frontier emptiness engine
// (src/nta/lazy.h) against the eager reference pipeline: identical verdicts
// on random instances and on a constructed family with a large universe,
// valid counterexample witnesses, agreement under resource exhaustion, and
// snapshot export/resume round-trips.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "src/base/arena.h"
#include "src/base/budget.h"
#include "src/nta/lazy.h"
#include "src/nta/nta.h"
#include "src/tree/hashcons.h"
#include "src/tree/tree.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

// The inclusion query L(din) ⊆ L(dout) posed as product emptiness:
// L(A_in) ∩ complement L(A_out), with A_out tracked by on-the-fly subset
// construction. The NTAs sit behind unique_ptr so the spec's borrowed
// pointers stay valid when the query is returned by value.
struct InclusionQuery {
  std::unique_ptr<Nta> a;
  std::unique_ptr<Nta> b;
  LazyProductSpec spec;
};

InclusionQuery MakeInclusion(std::uint32_t seed) {
  RandomOptions options;
  options.num_symbols = 3 + static_cast<int>(seed % 3);
  options.num_states = 3;
  PaperExample ex = RandomInstance(seed, options, /*re_plus=*/seed % 2 == 1);
  InclusionQuery q{std::make_unique<Nta>(Nta::FromDtd(*ex.din)),
                   std::make_unique<Nta>(Nta::FromDtd(*ex.dout)),
                   {}};
  q.spec.AddNta(q.a.get());
  q.spec.AddDeterminized(q.b.get(), /*complement=*/true);
  return q;
}

TEST(LazyDeterminizeTest, VerdictsMatchEagerOnRandomInclusions) {
  int nonempty = 0;
  for (std::uint32_t seed = 1; seed <= 80; ++seed) {
    InclusionQuery q = MakeInclusion(seed);
    SharedForest lazy_forest;
    StatusOr<EmptinessOutcome> lazy = LazyEmptiness(q.spec, &lazy_forest);
    StatusOr<EmptinessOutcome> eager = EagerEmptiness(q.spec, nullptr);
    ASSERT_TRUE(lazy.ok()) << "seed " << seed << ": " << lazy.status().ToString();
    ASSERT_TRUE(eager.ok()) << "seed " << seed << ": " << eager.status().ToString();
    EXPECT_EQ(lazy->empty, eager->empty) << "seed " << seed;
    if (!lazy->empty) {
      ++nonempty;
      // The witness must be a genuine inclusion counterexample: accepted by
      // the input NTA, rejected by the output NTA.
      ASSERT_GE(lazy->witness, 0) << "seed " << seed;
      Arena arena;
      TreeBuilder builder(&arena);
      StatusOr<Node*> tree =
          lazy_forest.Materialize(lazy->witness, &builder, 1 << 20);
      ASSERT_TRUE(tree.ok()) << "seed " << seed << ": " << tree.status().ToString();
      EXPECT_TRUE(q.a->Accepts(*tree)) << "seed " << seed;
      EXPECT_FALSE(q.b->Accepts(*tree)) << "seed " << seed;
    }
  }
  // The sweep must exercise both verdicts to mean anything.
  EXPECT_GT(nonempty, 0);
  EXPECT_LT(nonempty, 80);
}

// A shift-register family: the existential side accepts every tree over
// {u, b_1..b_k, n}; the determinized side's bottom-up subsets form the full
// union lattice over k generators, all of which the lazy engine mints, and
// its complement is empty. `pad` adds states that no rule reaches, so the
// determinized factor's universe grows while every subset stays small.
InclusionQuery MakeShiftRegister(int k, int pad) {
  auto epsilon = [](int alphabet) {
    Nfa nfa(alphabet);
    nfa.AddState(/*initial=*/true, /*final=*/true);
    return nfa;
  };
  const int num_symbols = k + 2;
  auto a = std::make_unique<Nta>(num_symbols, 1);
  a->SetFinal(0);
  for (int s = 0; s <= k; ++s) a->SetTransition(0, s, epsilon(1));
  Nfa one_or_more(1);
  const int s0 = one_or_more.AddState(/*initial=*/true, /*final=*/false);
  const int s1 = one_or_more.AddState(/*initial=*/false, /*final=*/true);
  one_or_more.AddTransition(s0, 0, s1);
  one_or_more.AddTransition(s1, 0, s1);
  a->SetTransition(0, k + 1, one_or_more);

  const int num_states = k + 1 + pad;
  auto b = std::make_unique<Nta>(num_symbols, num_states);
  b->SetFinal(0);
  b->SetTransition(0, 0, epsilon(num_states));
  for (int i = 1; i <= k; ++i) {
    b->SetTransition(0, i, epsilon(num_states));
    b->SetTransition(i, i, epsilon(num_states));
  }
  for (int q = 0; q <= k; ++q) {
    Nfa contains(num_states);
    const int c0 = contains.AddState(/*initial=*/true, /*final=*/false);
    const int c1 = contains.AddState(/*initial=*/false, /*final=*/true);
    for (int c = 0; c <= k; ++c) {
      contains.AddTransition(c0, c, c0);
      contains.AddTransition(c1, c, c1);
    }
    contains.AddTransition(c0, q, c1);
    b->SetTransition(q, k + 1, contains);
  }
  InclusionQuery q{std::move(a), std::move(b), {}};
  q.spec.AddNta(q.a.get());
  q.spec.AddDeterminized(q.b.get(), /*complement=*/true);
  return q;
}

// Both engines find the shift-register query empty, and the lazy engine
// discovers all 2^k configs.
void ExpectShiftRegisterEmpty(int k, int pad, std::uint64_t configs) {
  InclusionQuery q = MakeShiftRegister(k, pad);
  StatusOr<EmptinessOutcome> lazy = LazyEmptiness(q.spec, nullptr);
  StatusOr<EmptinessOutcome> eager = EagerEmptiness(q.spec, nullptr);
  ASSERT_TRUE(lazy.ok()) << "k " << k << ": " << lazy.status().ToString();
  ASSERT_TRUE(eager.ok()) << "k " << k << ": " << eager.status().ToString();
  EXPECT_TRUE(lazy->empty) << "k " << k;
  EXPECT_TRUE(eager->empty) << "k " << k;
  EXPECT_EQ(lazy->stats.configs, configs) << "k " << k;
}

TEST(LazyDeterminizeTest, ShiftRegisterFamilyMatchesEager) {
  ExpectShiftRegisterEmpty(/*k=*/5, /*pad=*/0, /*configs=*/32);
}

TEST(LazyDeterminizeTest, SparseShiftRegisterFamilyMatchesEager) {
  // Pad 2112 gives the determinized factor a universe of over 2048 states
  // while every subset stays small.
  ExpectShiftRegisterEmpty(/*k=*/6, /*pad=*/2112, /*configs=*/64);
}

TEST(LazyDeterminizeTest, EagerWitnessesAreCounterexamples) {
  // The eager reference engine's witnesses, checked the way the lazy ones
  // are in VerdictsMatchEagerOnRandomInclusions: accepted by the input NTA,
  // rejected by the output NTA, on the same 80-seed sweep.
  int nonempty = 0;
  for (std::uint32_t seed = 1; seed <= 80; ++seed) {
    InclusionQuery q = MakeInclusion(seed);
    SharedForest forest;
    StatusOr<EmptinessOutcome> eager = EagerEmptiness(q.spec, &forest);
    StatusOr<EmptinessOutcome> lazy = LazyEmptiness(q.spec, nullptr);
    ASSERT_TRUE(eager.ok()) << "seed " << seed << ": "
                            << eager.status().ToString();
    ASSERT_TRUE(lazy.ok()) << "seed " << seed << ": "
                           << lazy.status().ToString();
    EXPECT_EQ(eager->empty, lazy->empty) << "seed " << seed;
    if (eager->empty) {
      EXPECT_EQ(eager->witness, -1) << "seed " << seed;
      continue;
    }
    ++nonempty;
    ASSERT_GE(eager->witness, 0) << "seed " << seed;
    Arena arena;
    TreeBuilder builder(&arena);
    StatusOr<Node*> tree = forest.Materialize(eager->witness, &builder, 1 << 20);
    ASSERT_TRUE(tree.ok()) << "seed " << seed << ": " << tree.status().ToString();
    EXPECT_TRUE(q.a->Accepts(*tree)) << "seed " << seed;
    EXPECT_FALSE(q.b->Accepts(*tree)) << "seed " << seed;
  }
  EXPECT_GT(nonempty, 0);
  EXPECT_LT(nonempty, 80);
}

TEST(LazyDeterminizeTest, VerdictsMatchEagerOnPureExistentialProducts) {
  // Two existential components (plain intersection, no determinization):
  // the joint-run product path of the lazy engine.
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    RandomOptions options;
    options.num_symbols = 3;
    PaperExample ex1 = RandomInstance(seed, options, /*re_plus=*/false);
    PaperExample ex2 = RandomInstance(seed + 1000, options, /*re_plus=*/true);
    Nta a = Nta::FromDtd(*ex1.din);
    Nta b = Nta::FromDtd(*ex2.din);
    if (a.num_symbols() != b.num_symbols()) continue;
    LazyProductSpec spec;
    spec.AddNta(&a);
    spec.AddNta(&b);
    SharedForest forest;
    StatusOr<EmptinessOutcome> lazy = LazyEmptiness(spec, &forest);
    StatusOr<EmptinessOutcome> eager = EagerEmptiness(spec, nullptr);
    ASSERT_TRUE(lazy.ok()) << "seed " << seed << ": " << lazy.status().ToString();
    ASSERT_TRUE(eager.ok()) << "seed " << seed << ": " << eager.status().ToString();
    EXPECT_EQ(lazy->empty, eager->empty) << "seed " << seed;
    if (!lazy->empty) {
      Arena arena;
      TreeBuilder builder(&arena);
      StatusOr<Node*> tree =
          forest.Materialize(lazy->witness, &builder, 1 << 20);
      ASSERT_TRUE(tree.ok()) << "seed " << seed;
      EXPECT_TRUE(a.Accepts(*tree) && b.Accepts(*tree)) << "seed " << seed;
    }
  }
}

TEST(LazyDeterminizeTest, BothEnginesReportResourceExhaustedOnTrippedBudget) {
  // Trivial instances can finish before the first checkpoint; every run
  // whose budget does trip must unwind with kResourceExhausted (never a
  // wrong verdict), and the sweep must trip both engines at least once.
  int tripped_lazy = 0;
  int tripped_eager = 0;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    InclusionQuery q = MakeInclusion(seed);
    for (auto* engine : {&LazyEmptiness, &EagerEmptiness}) {
      Budget budget;
      budget.set_max_steps(1);
      LazyOptions options;
      options.budget = &budget;
      StatusOr<EmptinessOutcome> out = engine(q.spec, nullptr, options);
      if (!budget.exhausted()) {
        EXPECT_TRUE(out.ok()) << "seed " << seed << ": "
                              << out.status().ToString();
        continue;
      }
      (engine == &LazyEmptiness ? tripped_lazy : tripped_eager) += 1;
      EXPECT_FALSE(out.ok()) << "seed " << seed;
      EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
          << "seed " << seed << ": " << out.status().ToString();
    }
  }
  EXPECT_GT(tripped_lazy, 0);
  EXPECT_GT(tripped_eager, 0);
}

TEST(LazyDeterminizeTest, StateCapsFailSoftWithResourceExhausted) {
  InclusionQuery q = MakeInclusion(7);
  {
    LazyOptions options;
    options.max_configs = 1;
    StatusOr<EmptinessOutcome> out = LazyEmptiness(q.spec, nullptr, options);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  }
  {
    LazyOptions options;
    options.max_h_configs = 2;
    StatusOr<EmptinessOutcome> out = LazyEmptiness(q.spec, nullptr, options);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(LazyDeterminizeTest, SnapshotRoundTripPreservesVerdicts) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    InclusionQuery q = MakeInclusion(seed);
    LazySnapshot snapshot;
    LazyOptions export_options;
    export_options.export_snapshot = &snapshot;
    StatusOr<EmptinessOutcome> cold =
        LazyEmptiness(q.spec, nullptr, export_options);
    ASSERT_TRUE(cold.ok()) << "seed " << seed << ": " << cold.status().ToString();
    // A clean run always exports a complete snapshot carrying the verdict.
    EXPECT_TRUE(snapshot.complete) << "seed " << seed;
    EXPECT_EQ(snapshot.empty, cold->empty) << "seed " << seed;

    // Resume without a forest: the complete snapshot short-circuits.
    LazyOptions resume_options;
    resume_options.resume = &snapshot;
    StatusOr<EmptinessOutcome> warm =
        LazyEmptiness(q.spec, nullptr, resume_options);
    ASSERT_TRUE(warm.ok()) << "seed " << seed << ": " << warm.status().ToString();
    EXPECT_EQ(warm->empty, cold->empty) << "seed " << seed;
    EXPECT_TRUE(warm->stats.resumed) << "seed " << seed;

    // Resume with a forest on a non-empty verdict: the witness must be
    // re-derived (the snapshot stores tables, not trees) and stay valid.
    if (!cold->empty) {
      SharedForest forest;
      StatusOr<EmptinessOutcome> witnessed =
          LazyEmptiness(q.spec, &forest, resume_options);
      ASSERT_TRUE(witnessed.ok()) << "seed " << seed;
      EXPECT_FALSE(witnessed->empty) << "seed " << seed;
      ASSERT_GE(witnessed->witness, 0) << "seed " << seed;
      Arena arena;
      TreeBuilder builder(&arena);
      StatusOr<Node*> tree =
          forest.Materialize(witnessed->witness, &builder, 1 << 20);
      ASSERT_TRUE(tree.ok()) << "seed " << seed;
      EXPECT_TRUE(q.a->Accepts(*tree)) << "seed " << seed;
      EXPECT_FALSE(q.b->Accepts(*tree)) << "seed " << seed;
    }
  }
}

TEST(LazyDeterminizeTest, FailedRunsExportNoSnapshot) {
  InclusionQuery q = MakeInclusion(3);
  LazySnapshot snapshot;
  LazyOptions options;
  options.export_snapshot = &snapshot;
  options.max_configs = 1;
  StatusOr<EmptinessOutcome> out = LazyEmptiness(q.spec, nullptr, options);
  ASSERT_FALSE(out.ok());
  EXPECT_FALSE(snapshot.complete);
  for (const LazySnapshot::DetTable& table : snapshot.det_tables) {
    EXPECT_TRUE(table.pool.empty());
  }
}

TEST(LazyDeterminizeTest, EmptySpecIsInvalid) {
  LazyProductSpec spec;
  StatusOr<EmptinessOutcome> out = LazyEmptiness(spec, nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xtc
