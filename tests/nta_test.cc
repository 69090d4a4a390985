#include "src/nta/nta.h"

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/nta/analysis.h"
#include "src/nta/completion.h"
#include "src/nta/determinize.h"
#include "src/nta/lazy.h"
#include "src/nta/product.h"
#include "src/tree/codec.h"

namespace xtc {
namespace {

class NtaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* s : {"book", "title", "author", "chapter"}) {
      alphabet_.Intern(s);
    }
    dtd_ = std::make_unique<Dtd>(&alphabet_, *alphabet_.Find("book"));
    ASSERT_TRUE(dtd_->SetRule("book", "title author+ chapter+").ok());
    ASSERT_TRUE(dtd_->SetRule("chapter", "title").ok());
  }

  Node* Tree(const char* term) {
    StatusOr<Node*> t = ParseTerm(term, &alphabet_, &builder_);
    EXPECT_TRUE(t.ok());
    return *t;
  }

  Alphabet alphabet_;
  Arena arena_;
  TreeBuilder builder_{&arena_};
  std::unique_ptr<Dtd> dtd_;
};

TEST_F(NtaTest, FromDtdMatchesValidation) {
  Nta nta = Nta::FromDtd(*dtd_);
  BruteForceOptions opts;
  opts.max_depth = 3;
  opts.max_width = 3;
  StatusOr<std::vector<Node*>> trees =
      EnumerateValidTrees(*dtd_, dtd_->start(), opts, &builder_);
  ASSERT_TRUE(trees.ok());
  ASSERT_FALSE(trees->empty());
  for (Node* t : *trees) {
    EXPECT_TRUE(nta.Accepts(t));
  }
  EXPECT_FALSE(nta.Accepts(Tree("book(title)")));
  EXPECT_FALSE(nta.Accepts(Tree("title")));
  EXPECT_TRUE(nta.Accepts(Tree("book(title author chapter(title))")));
}

TEST_F(NtaTest, EmptinessMatchesDtdEmptiness) {
  Nta nta = Nta::FromDtd(*dtd_);
  EXPECT_FALSE(IsEmptyLanguage(nta));
  Alphabet a2;
  a2.Intern("x");
  Dtd rec(&a2, 0);
  ASSERT_TRUE(rec.SetRule("x", "x").ok());
  EXPECT_TRUE(IsEmptyLanguage(Nta::FromDtd(rec)));
}

TEST_F(NtaTest, WitnessTreeIsAccepted) {
  Nta nta = Nta::FromDtd(*dtd_);
  SharedForest forest;
  std::optional<int> id = WitnessTree(nta, &forest);
  ASSERT_TRUE(id.has_value());
  StatusOr<Node*> tree = forest.Materialize(*id, &builder_, 1 << 16);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(nta.Accepts(*tree));
  EXPECT_TRUE(dtd_->Valid(*tree));
}

TEST_F(NtaTest, FinitenessDetectsStarRules) {
  // book -> title author+ chapter+ has unbounded authors: infinite.
  EXPECT_FALSE(IsFiniteLanguage(Nta::FromDtd(*dtd_)));
  // An exact-arity DTD is finite.
  Alphabet a2;
  a2.Intern("r");
  a2.Intern("x");
  Dtd fin(&a2, 0);
  ASSERT_TRUE(fin.SetRule("r", "x x").ok());
  EXPECT_TRUE(IsFiniteLanguage(Nta::FromDtd(fin)));
  // Vertical recursion with optional unfolding is infinite.
  Dtd vert(&a2, 0);
  ASSERT_TRUE(vert.SetRule("r", "x").ok());
  ASSERT_TRUE(vert.SetRule("x", "x | %").ok());
  EXPECT_FALSE(IsFiniteLanguage(Nta::FromDtd(vert)));
}

TEST_F(NtaTest, DeterminismAndCompleteness) {
  Nta nta = Nta::FromDtd(*dtd_);
  EXPECT_TRUE(IsBottomUpDeterministic(nta));
  EXPECT_FALSE(IsComplete(nta));
  Nta complete = CompletedDeterministic(nta);
  EXPECT_TRUE(IsBottomUpDeterministic(complete));
  EXPECT_TRUE(IsComplete(complete));
  // Completion preserves the language.
  BruteForceOptions opts;
  opts.max_depth = 3;
  opts.max_width = 3;
  StatusOr<std::vector<Node*>> trees =
      EnumerateValidTrees(*dtd_, dtd_->start(), opts, &builder_);
  ASSERT_TRUE(trees.ok());
  for (Node* t : *trees) EXPECT_TRUE(complete.Accepts(t));
  EXPECT_FALSE(complete.Accepts(Tree("book(title)")));
}

TEST_F(NtaTest, ComplementOfDtacFlipsAcceptance) {
  Nta complete = CompletedDeterministic(Nta::FromDtd(*dtd_));
  Nta complement = ComplementedDtac(complete);
  Node* good = Tree("book(title author chapter(title))");
  Node* bad = Tree("book(title)");
  EXPECT_TRUE(complete.Accepts(good));
  EXPECT_FALSE(complement.Accepts(good));
  EXPECT_FALSE(complete.Accepts(bad));
  EXPECT_TRUE(complement.Accepts(bad));
}

TEST_F(NtaTest, IntersectionAndUnion) {
  // d2 requires exactly one author.
  Dtd d2(&alphabet_, *alphabet_.Find("book"));
  ASSERT_TRUE(d2.SetRule("book", "title author chapter+").ok());
  ASSERT_TRUE(d2.SetRule("chapter", "title").ok());
  Nta a = Nta::FromDtd(*dtd_);
  Nta b = Nta::FromDtd(d2);
  Nta both = Intersect(a, b);
  Nta either = DisjointUnion(a, b);
  Node* one_author = Tree("book(title author chapter(title))");
  Node* two_authors = Tree("book(title author author chapter(title))");
  EXPECT_TRUE(both.Accepts(one_author));
  EXPECT_FALSE(both.Accepts(two_authors));
  EXPECT_TRUE(either.Accepts(one_author));
  EXPECT_TRUE(either.Accepts(two_authors));
  EXPECT_FALSE(either.Accepts(Tree("book(title)")));
}

TEST_F(NtaTest, DeterminizePreservesLanguage) {
  // A nondeterministic automaton: the union of two DTD automata.
  Dtd d2(&alphabet_, *alphabet_.Find("book"));
  ASSERT_TRUE(d2.SetRule("book", "chapter chapter").ok());
  ASSERT_TRUE(d2.SetRule("chapter", "title | %").ok());
  Nta u = DisjointUnion(Nta::FromDtd(*dtd_), Nta::FromDtd(d2));
  StatusOr<Nta> det = DeterminizeToDtac(u, 4096);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  EXPECT_TRUE(IsBottomUpDeterministic(*det));
  EXPECT_TRUE(IsComplete(*det));
  for (const char* term :
       {"book(title author chapter(title))", "book(chapter chapter)",
        "book(chapter(title) chapter)", "book(title)", "book(chapter)",
        "title", "book(title author author chapter(title) chapter(title))"}) {
    Node* t = Tree(term);
    EXPECT_EQ(u.Accepts(t), det->Accepts(t)) << term;
  }
}

TEST_F(NtaTest, DeterminizeRespectsBudget) {
  Nta u = Nta::FromDtd(*dtd_);
  StatusOr<Nta> det = DeterminizeToDtac(u, 1);
  EXPECT_FALSE(det.ok());
  EXPECT_EQ(det.status().code(), StatusCode::kResourceExhausted);
}

// A one-state NTA over one symbol whose horizontal NFA has `m` states, all
// initial and final, and an edge between every pair: each row of a product
// with itself carries m * m edges.
Nta DenseHorizontal(int m) {
  Nfa h(1);
  for (int i = 0; i < m; ++i) h.AddState(true, true);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) h.AddTransition(i, 0, j);
  }
  Nta nta(1, 1);
  nta.SetFinal(0);
  nta.SetTransition(0, 0, std::move(h));
  return nta;
}

TEST(IntersectBudgetTest, CheckpointsEveryProductRow) {
  const int m = 8;
  Nta a = DenseHorizontal(m);
  Budget budget;
  StatusOr<Nta> both = Intersect(a, a, &budget);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_FALSE(IsEmptyLanguage(*both));
  // One checkpoint before the states are allocated, one per state of `a`
  // while marking final states, one for the horizontal pair and one per
  // product row, so at most m * m edges are built between two of them.
  const std::uint64_t expected = 1 + 1 + 1 + m * m;
  EXPECT_EQ(budget.checkpoints(), expected);
  for (std::uint64_t k = 1; k <= expected; ++k) {
    Budget faulty;
    faulty.set_fail_at_checkpoint(k);
    StatusOr<Nta> cut = Intersect(a, a, &faulty);
    ASSERT_FALSE(cut.ok()) << "checkpoint " << k;
    EXPECT_EQ(cut.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(IntersectBudgetTest, RefusesAStateCountBeyondInt) {
  // 50000^2 states do not fit an int; the product fails before allocating.
  Nta big(1, 50000);
  Budget budget;
  StatusOr<Nta> both = Intersect(big, big, &budget);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.checkpoints(), 0u);
}

// Two states: 0 is a leaf, 1 has m horizontal states with an edge on child
// state 0 between every pair, initial 0 and final m - 1.
Nta LeafClique(int m) {
  Nfa leaf(2);
  leaf.AddState(true, true);
  Nfa clique(2);
  for (int i = 0; i < m; ++i) clique.AddState(i == 0, i == m - 1);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) clique.AddTransition(i, 0, j);
  }
  Nta nta(1, 2);
  nta.SetFinal(1);
  nta.SetTransition(0, 0, std::move(leaf));
  nta.SetTransition(1, 0, std::move(clique));
  return nta;
}

TEST(EagerEmptinessBudgetTest, CheckpointsEveryExpandedPair) {
  const int m = 6;
  Nta a = LeafClique(m);
  LazyProductSpec spec;
  spec.AddNta(&a);
  spec.AddNta(&a);
  Budget budget;
  LazyOptions options;
  options.budget = &budget;
  StatusOr<EmptinessOutcome> r = EagerEmptiness(spec, nullptr, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->empty);
  // The search for (1, 1) expands pairs of the two cliques' states; each
  // expansion reads at most m * m edge pairs and is preceded by a
  // checkpoint, as is every product state tried.
  EXPECT_GT(r->stats.h_configs, static_cast<std::uint64_t>(m));
  EXPECT_GE(budget.checkpoints(), r->stats.configs + r->stats.h_configs);
  for (std::uint64_t k = 1; k <= budget.checkpoints(); ++k) {
    Budget faulty;
    faulty.set_fail_at_checkpoint(k);
    options.budget = &faulty;
    StatusOr<EmptinessOutcome> cut = EagerEmptiness(spec, nullptr, options);
    ASSERT_FALSE(cut.ok()) << "checkpoint " << k;
    EXPECT_EQ(cut.status().code(), StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace xtc
