// Antichain subsumption pruning (DESIGN.md §3e) and its supporting data
// structures: unit tests for the adaptive state sets and the antichain
// index, a differential sweep proving pruning never changes verdicts or
// invalidates witnesses, snapshot round-trips with pruning, and the
// fault-injection untorn-snapshot check with the antichain layer on.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/antichain.h"
#include "src/base/arena.h"
#include "src/base/budget.h"
#include "src/base/sparse_state_set.h"
#include "src/nta/lazy.h"
#include "src/nta/nta.h"
#include "src/tree/hashcons.h"
#include "src/tree/tree.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

// ---------------------------------------------------------------------------
// src/base units.

TEST(SparseStateSetTest, MembershipAndContainsAll) {
  const std::vector<int> abc = {1, 5, 9000};
  const std::vector<int> ab = {1, 5};
  SparseStateSet s = SparseStateSet::FromSorted(abc, 10000);
  EXPECT_EQ(s.universe(), 10000);
  EXPECT_EQ(s.Count(), 3);
  EXPECT_TRUE(s.Test(1));
  EXPECT_TRUE(s.Test(9000));
  EXPECT_FALSE(s.Test(0));
  EXPECT_FALSE(s.Test(9999));

  SparseStateSet t = SparseStateSet::FromSorted(ab, 10000);
  EXPECT_TRUE(s.ContainsAll(t));
  EXPECT_FALSE(t.ContainsAll(s));
  EXPECT_TRUE(s.ContainsAll(s));
  SparseStateSet empty = SparseStateSet::FromSorted({}, 10000);
  EXPECT_TRUE(t.ContainsAll(empty));
  EXPECT_FALSE(empty.ContainsAll(t));
  EXPECT_TRUE(empty.ContainsAll(empty));
}

TEST(AdaptiveStateSetTest, RepresentationFollowsThreshold) {
  const std::vector<int> members = {0, 63, 64, 100};
  AdaptiveStateSet dense(members, /*universe=*/101, /*dense_threshold=*/2048);
  AdaptiveStateSet sparse(members, /*universe=*/5000,
                          /*dense_threshold=*/2048);
  EXPECT_FALSE(dense.sparse());
  EXPECT_TRUE(sparse.sparse());
  for (const AdaptiveStateSet* s : {&dense, &sparse}) {
    EXPECT_EQ(s->Count(), 4);
    EXPECT_TRUE(s->Test(63));
    EXPECT_TRUE(s->Test(64));
    EXPECT_FALSE(s->Test(65));
  }
  EXPECT_EQ(dense.universe(), 101);
  EXPECT_EQ(sparse.universe(), 5000);
}

TEST(AdaptiveStateSetTest, ContainsAllAcrossRepresentations) {
  const std::vector<int> big = {2, 3, 70, 71};
  const std::vector<int> small = {3, 70};
  for (const int universe : {128, 4096}) {
    AdaptiveStateSet b(big, universe, kDefaultDenseThreshold);
    AdaptiveStateSet s(small, universe, kDefaultDenseThreshold);
    EXPECT_TRUE(b.ContainsAll(s)) << "universe " << universe;
    EXPECT_FALSE(s.ContainsAll(b)) << "universe " << universe;
  }
  // Defensive mixed-mode fallback (different thresholds on the two sides).
  AdaptiveStateSet dense(big, 4096, /*dense_threshold=*/1 << 20);
  AdaptiveStateSet sparse(small, 4096, /*dense_threshold=*/16);
  EXPECT_FALSE(dense.sparse());
  EXPECT_TRUE(sparse.sparse());
  EXPECT_TRUE(dense.ContainsAll(sparse));
  EXPECT_FALSE(sparse.ContainsAll(dense));
}

TEST(ScratchSetTest, AddExtractClearCycle) {
  ScratchSet scratch;
  scratch.EnsureUniverse(300);
  EXPECT_TRUE(scratch.Add(250));
  EXPECT_TRUE(scratch.Add(3));
  EXPECT_FALSE(scratch.Add(250));  // duplicate
  EXPECT_TRUE(scratch.Add(64));
  EXPECT_TRUE(scratch.Test(3));
  EXPECT_FALSE(scratch.Test(4));
  std::vector<int> out = {99};  // must be replaced, not appended to
  scratch.ExtractSortedAndClear(&out);
  EXPECT_EQ(out, (std::vector<int>{3, 64, 250}));
  // The set is empty again and reusable at a larger universe.
  EXPECT_FALSE(scratch.Test(3));
  scratch.EnsureUniverse(1000);
  EXPECT_TRUE(scratch.Add(999));
  scratch.ExtractSortedAndClear(&out);
  EXPECT_EQ(out, (std::vector<int>{999}));
}

// Dominance order used by the index tests: key = [ex, mask-id] where the
// mask id dominates iff numerically >= (a stand-in for set inclusion).
bool ToyDominates(std::span<const int> x, std::span<const int> y) {
  return x[0] == y[0] && x[1] >= y[1];
}

TEST(AntichainIndexTest, PruneAndDisplace) {
  AntichainIndex index;
  index.Configure({0});
  std::vector<int> displaced;

  const std::vector<int> low = {7, 1};
  const std::vector<int> high = {7, 5};
  const std::vector<int> other = {8, 0};
  EXPECT_FALSE(index.Insert(0, low, ToyDominates, &displaced));
  EXPECT_TRUE(displaced.empty());
  EXPECT_EQ(index.live(), 1u);

  // A dominated newcomer is pruned; nothing is displaced.
  EXPECT_TRUE(index.Insert(1, low, ToyDominates, &displaced));
  EXPECT_TRUE(displaced.empty());
  EXPECT_EQ(index.live(), 1u);

  // A dominating newcomer displaces the live entry.
  EXPECT_FALSE(index.Insert(2, high, ToyDominates, &displaced));
  EXPECT_EQ(displaced, std::vector<int>{0});
  EXPECT_EQ(index.live(), 1u);

  // Different existential coordinate: incomparable, coexists.
  displaced.clear();
  EXPECT_FALSE(index.Insert(3, other, ToyDominates, &displaced));
  EXPECT_TRUE(displaced.empty());
  EXPECT_EQ(index.live(), 2u);

  // The displaced entry is gone: its old key no longer prunes anything it
  // would have pruned, and re-offering it is pruned by the dominator.
  EXPECT_TRUE(index.Insert(4, low, ToyDominates, &displaced));
}

// ---------------------------------------------------------------------------
// Engine-level differential properties. Same query construction as
// lazy_determinize_test.cc: the inclusion L(din) ⊆ L(dout) as
// L(A_in) ∩ complement L(A_out).

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

// A deterministic, heavily prunable family (the bench_antichain shape,
// scaled down): the existential side accepts all trees over {u, b_1..b_k,
// n}; the determinized side's bottom-up subsets form the full union
// lattice over k generators, every subset a superset of the leaf-u
// singleton {q0}, so under the complemented polarity {q0} dominates
// everything and the antichain collapses ~2^k configs to ~k+1.
struct PrunableQuery {
  std::unique_ptr<Nta> a;
  std::unique_ptr<Nta> b;
  LazyProductSpec spec;
};

Nfa EpsilonNfa(int alphabet) {
  Nfa nfa(alphabet);
  nfa.AddState(/*initial=*/true, /*final=*/true);
  return nfa;
}

PrunableQuery MakePrunable(int k, int pad) {
  const int num_symbols = k + 2;
  auto a = std::make_unique<Nta>(num_symbols, 1);
  a->SetFinal(0);
  for (int s = 0; s <= k; ++s) a->SetTransition(0, s, EpsilonNfa(1));
  Nfa one_or_more(1);
  int s0 = one_or_more.AddState(/*initial=*/true, /*final=*/false);
  int s1 = one_or_more.AddState(/*initial=*/false, /*final=*/true);
  one_or_more.AddTransition(s0, 0, s1);
  one_or_more.AddTransition(s1, 0, s1);
  a->SetTransition(0, k + 1, one_or_more);

  const int num_states = k + 1 + pad;
  auto b = std::make_unique<Nta>(num_symbols, num_states);
  b->SetFinal(0);
  b->SetTransition(0, 0, EpsilonNfa(num_states));
  for (int i = 1; i <= k; ++i) {
    b->SetTransition(0, i, EpsilonNfa(num_states));
    b->SetTransition(i, i, EpsilonNfa(num_states));
  }
  for (int q = 0; q <= k; ++q) {
    Nfa contains(num_states);
    int c0 = contains.AddState(/*initial=*/true, /*final=*/false);
    int c1 = contains.AddState(/*initial=*/false, /*final=*/true);
    for (int c = 0; c <= k; ++c) {
      contains.AddTransition(c0, c, c0);
      contains.AddTransition(c1, c, c1);
    }
    contains.AddTransition(c0, q, c1);
    b->SetTransition(q, k + 1, contains);
  }

  PrunableQuery q{std::move(a), std::move(b), {}};
  q.spec.AddNta(q.a.get());
  q.spec.AddDeterminized(q.b.get(), /*complement=*/true);
  return q;
}

TEST(AntichainTest, VerdictsAndWitnessesMatchAcrossPruning) {
  // The headline differential sweep: 80 random inclusion instances, the
  // antichain layer on and off — one verdict per instance, and every
  // non-empty run's witness must be a genuine counterexample regardless of
  // which configs pruning skipped.
  int nonempty = 0;
  for (std::uint32_t seed = 1; seed <= 80; ++seed) {
    InclusionQuery q = MakeInclusion(seed);
    LazyOptions reference_options;
    reference_options.antichain = false;
    StatusOr<EmptinessOutcome> reference =
        LazyEmptiness(q.spec, nullptr, reference_options);
    ASSERT_TRUE(reference.ok())
        << "seed " << seed << ": " << reference.status().ToString();
    if (!reference->empty) ++nonempty;
    for (const bool antichain : {false, true}) {
      LazyOptions options;
      options.antichain = antichain;
      SharedForest forest;
      StatusOr<EmptinessOutcome> out = LazyEmptiness(q.spec, &forest, options);
      ASSERT_TRUE(out.ok()) << "seed " << seed << " antichain " << antichain
                            << ": " << out.status().ToString();
      EXPECT_EQ(out->empty, reference->empty)
          << "seed " << seed << " antichain " << antichain;
      if (!antichain) {
        EXPECT_EQ(out->stats.pruned_configs, 0u) << "seed " << seed;
        EXPECT_EQ(out->stats.displaced_configs, 0u) << "seed " << seed;
      }
      if (!out->empty) {
        ASSERT_GE(out->witness, 0) << "seed " << seed;
        Arena arena;
        TreeBuilder builder(&arena);
        StatusOr<Node*> tree =
            forest.Materialize(out->witness, &builder, 1 << 20);
        ASSERT_TRUE(tree.ok()) << "seed " << seed << " antichain "
                               << antichain << ": "
                               << tree.status().ToString();
        EXPECT_TRUE(q.a->Accepts(*tree)) << "seed " << seed;
        EXPECT_FALSE(q.b->Accepts(*tree)) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(nonempty, 0);
  EXPECT_LT(nonempty, 80);
}

TEST(AntichainTest, PruningShrinksThePrunableFamily) {
  // On the constructed family the effect must actually show: fewer
  // discovered configs, non-zero prune counters, same (empty) verdict.
  // Both universe regimes: dense (pad 0) and sparse (pad past the
  // threshold).
  for (const int pad : {0, kDefaultDenseThreshold + 1024}) {
    PrunableQuery q = MakePrunable(/*k=*/5, pad);
    LazyOptions on;
    LazyOptions off;
    off.antichain = false;
    StatusOr<EmptinessOutcome> pruned = LazyEmptiness(q.spec, nullptr, on);
    StatusOr<EmptinessOutcome> full = LazyEmptiness(q.spec, nullptr, off);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_TRUE(pruned->empty);
    EXPECT_TRUE(full->empty);
    EXPECT_GT(pruned->stats.pruned_configs + pruned->stats.displaced_configs,
              0u)
        << "pad " << pad;
    EXPECT_LT(pruned->stats.configs, full->stats.configs) << "pad " << pad;
    EXPECT_EQ(full->stats.pruned_configs, 0u);
  }
}

TEST(AntichainTest, PureExistentialProductsAreUnaffected) {
  // No determinized component: the antichain layer must disengage (the
  // interner's equality dedup is already maximal), leaving counters zero
  // and verdicts equal with the knob either way.
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    RandomOptions gen;
    gen.num_symbols = 3;
    PaperExample ex1 = RandomInstance(seed, gen, /*re_plus=*/false);
    PaperExample ex2 = RandomInstance(seed + 1000, gen, /*re_plus=*/true);
    Nta a = Nta::FromDtd(*ex1.din);
    Nta b = Nta::FromDtd(*ex2.din);
    if (a.num_symbols() != b.num_symbols()) continue;
    LazyProductSpec spec;
    spec.AddNta(&a);
    spec.AddNta(&b);
    LazyOptions on;
    LazyOptions off;
    off.antichain = false;
    StatusOr<EmptinessOutcome> with = LazyEmptiness(spec, nullptr, on);
    StatusOr<EmptinessOutcome> without = LazyEmptiness(spec, nullptr, off);
    ASSERT_TRUE(with.ok()) << "seed " << seed;
    ASSERT_TRUE(without.ok()) << "seed " << seed;
    EXPECT_EQ(with->empty, without->empty) << "seed " << seed;
    EXPECT_EQ(with->stats.pruned_configs, 0u) << "seed " << seed;
    EXPECT_EQ(with->stats.configs, without->stats.configs) << "seed " << seed;
  }
}

TEST(AntichainTest, SnapshotRoundTripWithPruning) {
  // Export with pruning on, resume with either setting; plus the random
  // sweep shape from lazy_determinize_test with the antichain on.
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    InclusionQuery q = MakeInclusion(seed);
    LazySnapshot snapshot;
    LazyOptions export_options;
    export_options.export_snapshot = &snapshot;
    StatusOr<EmptinessOutcome> cold =
        LazyEmptiness(q.spec, nullptr, export_options);
    ASSERT_TRUE(cold.ok()) << "seed " << seed << ": "
                           << cold.status().ToString();
    EXPECT_TRUE(snapshot.complete) << "seed " << seed;
    EXPECT_TRUE(snapshot.antichain) << "seed " << seed;
    EXPECT_EQ(snapshot.empty, cold->empty) << "seed " << seed;

    for (const bool resume_antichain : {true, false}) {
      LazyOptions resume_options;
      resume_options.resume = &snapshot;
      resume_options.antichain = resume_antichain;
      StatusOr<EmptinessOutcome> warm =
          LazyEmptiness(q.spec, nullptr, resume_options);
      ASSERT_TRUE(warm.ok()) << "seed " << seed;
      EXPECT_EQ(warm->empty, cold->empty)
          << "seed " << seed << " resume_antichain " << resume_antichain;
      EXPECT_TRUE(warm->stats.resumed) << "seed " << seed;
    }

    // Complete-resume re-export is byte-stable: the snapshot is copied
    // verbatim, pruning markers included.
    LazySnapshot re_export;
    LazyOptions round;
    round.resume = &snapshot;
    round.export_snapshot = &re_export;
    StatusOr<EmptinessOutcome> again = LazyEmptiness(q.spec, nullptr, round);
    ASSERT_TRUE(again.ok()) << "seed " << seed;
    ASSERT_TRUE(re_export.complete) << "seed " << seed;
    EXPECT_EQ(re_export.antichain, snapshot.antichain) << "seed " << seed;
    EXPECT_EQ(re_export.pruned_configs, snapshot.pruned_configs)
        << "seed " << seed;
    ASSERT_EQ(re_export.det_tables.size(), snapshot.det_tables.size());
    for (std::size_t i = 0; i < snapshot.det_tables.size(); ++i) {
      EXPECT_EQ(re_export.det_tables[i].pool, snapshot.det_tables[i].pool)
          << "seed " << seed;
      EXPECT_EQ(re_export.det_tables[i].offsets,
                snapshot.det_tables[i].offsets)
          << "seed " << seed;
    }

    // A witness is still derivable when resuming a non-empty pruned run.
    if (!cold->empty) {
      SharedForest forest;
      LazyOptions witness_options;
      witness_options.resume = &snapshot;
      StatusOr<EmptinessOutcome> witnessed =
          LazyEmptiness(q.spec, &forest, witness_options);
      ASSERT_TRUE(witnessed.ok()) << "seed " << seed;
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

TEST(AntichainTest, PrunedSnapshotMarksAndCountsPruning) {
  PrunableQuery q = MakePrunable(/*k=*/5, /*pad=*/0);
  LazySnapshot snapshot;
  LazyOptions options;
  options.export_snapshot = &snapshot;
  StatusOr<EmptinessOutcome> out = LazyEmptiness(q.spec, nullptr, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(snapshot.complete);
  EXPECT_TRUE(snapshot.antichain);
  EXPECT_EQ(snapshot.pruned_configs,
            out->stats.pruned_configs + out->stats.displaced_configs);
  EXPECT_GT(snapshot.pruned_configs, 0u);

  LazySnapshot unpruned;
  LazyOptions off;
  off.antichain = false;
  off.export_snapshot = &unpruned;
  ASSERT_TRUE(LazyEmptiness(q.spec, nullptr, off).ok());
  EXPECT_FALSE(unpruned.antichain);
  EXPECT_EQ(unpruned.pruned_configs, 0u);
}

TEST(AntichainTest, FaultInjectionWithPruningIsCleanAndUntorn) {
  // Deterministic fault sweep with the antichain layer explicitly on:
  // every tripped run unwinds with kResourceExhausted and exports no torn
  // tables; untripped runs stay correct. Pruning must not let a half-built
  // antichain leak into a snapshot.
  for (std::uint32_t seed : {3u, 7u, 11u}) {
    InclusionQuery q = MakeInclusion(seed);
    StatusOr<EmptinessOutcome> reference = LazyEmptiness(q.spec, nullptr);
    ASSERT_TRUE(reference.ok()) << "seed " << seed;
    for (std::uint64_t fail_at = 1; fail_at <= 40; fail_at += 3) {
      Budget budget;
      budget.set_fail_at_checkpoint(fail_at);
      LazySnapshot snapshot;
      LazyOptions options;
      options.antichain = true;
      options.budget = &budget;
      options.export_snapshot = &snapshot;
      StatusOr<EmptinessOutcome> out = LazyEmptiness(q.spec, nullptr, options);
      if (budget.exhausted()) {
        EXPECT_FALSE(out.ok()) << "seed " << seed << " fail_at " << fail_at;
        EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
            << "seed " << seed << " fail_at " << fail_at << ": "
            << out.status().ToString();
        EXPECT_FALSE(snapshot.complete)
            << "seed " << seed << " fail_at " << fail_at;
        for (const LazySnapshot::DetTable& table : snapshot.det_tables) {
          EXPECT_TRUE(table.pool.empty())
              << "seed " << seed << " fail_at " << fail_at;
        }
      } else {
        ASSERT_TRUE(out.ok()) << "seed " << seed << " fail_at " << fail_at
                              << ": " << out.status().ToString();
        EXPECT_EQ(out->empty, reference->empty)
            << "seed " << seed << " fail_at " << fail_at;
        EXPECT_TRUE(snapshot.complete);
      }
    }
  }
}

TEST(AntichainTest, LargerSparsePrunableFamilyStaysEmpty) {
  // A larger instance of the constructed family, past the sparse
  // threshold: pruning keeps the verdict empty and actually fires.
  PrunableQuery q = MakePrunable(/*k=*/6, /*pad=*/kDefaultDenseThreshold + 64);
  StatusOr<EmptinessOutcome> out = LazyEmptiness(q.spec, nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->empty);
  EXPECT_GT(out->stats.pruned_configs + out->stats.displaced_configs, 0u);
}

}  // namespace
}  // namespace xtc
