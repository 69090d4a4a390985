#include "src/fa/dfa.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/fa/alphabet.h"
#include "src/fa/regex.h"
#include "tests/moore_oracle.h"

namespace xtc {
namespace {

// Parses a regex over {a, b} and compiles via Glushkov + subset.
Dfa FromPattern(const char* pattern) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  StatusOr<RegexPtr> re = ParseRegex(pattern, &alphabet);
  EXPECT_TRUE(re.ok()) << re.status().ToString();
  return Dfa::FromNfa(RegexToNfa(**re, 2));
}

std::vector<int> W(std::initializer_list<int> xs) { return xs; }

TEST(DfaTest, FromNfaPreservesLanguage) {
  Dfa d = FromPattern("(a b)*");
  EXPECT_TRUE(d.Accepts(W({})));
  EXPECT_TRUE(d.Accepts(W({0, 1})));
  EXPECT_TRUE(d.Accepts(W({0, 1, 0, 1})));
  EXPECT_FALSE(d.Accepts(W({0})));
  EXPECT_FALSE(d.Accepts(W({1})));
}

TEST(DfaTest, RunReportsDeadState) {
  Dfa d = FromPattern("a b");
  EXPECT_EQ(d.Run(d.initial(), W({1, 1})), Dfa::kDead);
  EXPECT_NE(d.Run(d.initial(), W({0})), Dfa::kDead);
}

TEST(DfaTest, CompletedIsTotalAndEquivalent) {
  Dfa d = FromPattern("a b+");
  Dfa c = d.Completed();
  EXPECT_TRUE(c.IsComplete());
  for (const auto& w :
       {W({}), W({0}), W({0, 1}), W({0, 1, 1}), W({1, 0}), W({0, 0})}) {
    EXPECT_EQ(d.Accepts(w), c.Accepts(w));
  }
}

TEST(DfaTest, ComplementFlipsMembership) {
  Dfa d = FromPattern("a* b");
  Dfa c = d.Complemented();
  for (const auto& w : {W({}), W({1}), W({0, 1}), W({0, 0}), W({1, 1})}) {
    EXPECT_NE(d.Accepts(w), c.Accepts(w));
  }
}

TEST(DfaTest, ProductAndOrDiff) {
  Dfa starts_a = FromPattern("a (a|b)*");
  Dfa ends_b = FromPattern("(a|b)* b");
  Dfa both = Dfa::Product(starts_a, ends_b, Dfa::BoolOp::kAnd);
  Dfa either = Dfa::Product(starts_a, ends_b, Dfa::BoolOp::kOr);
  Dfa diff = Dfa::Product(starts_a, ends_b, Dfa::BoolOp::kDiff);
  EXPECT_TRUE(both.Accepts(W({0, 1})));
  EXPECT_FALSE(both.Accepts(W({0, 0})));
  EXPECT_TRUE(either.Accepts(W({1, 1})));
  EXPECT_FALSE(either.Accepts(W({1, 0})));
  EXPECT_TRUE(diff.Accepts(W({0, 0})));
  EXPECT_FALSE(diff.Accepts(W({0, 1})));
}

TEST(DfaTest, EmptinessAndShortestWitness) {
  Dfa d = FromPattern("a b a");
  EXPECT_FALSE(d.IsEmpty());
  auto w = d.ShortestAccepted();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, W({0, 1, 0}));
  // a ∩ b is empty.
  Dfa never = Dfa::Product(FromPattern("a"), FromPattern("b"),
                           Dfa::BoolOp::kAnd);
  EXPECT_TRUE(never.IsEmpty());
}

TEST(DfaTest, InclusionAndEquivalence) {
  Dfa ab_star = FromPattern("(a b)*");
  Dfa any = FromPattern("(a|b)*");
  EXPECT_TRUE(ab_star.IncludedIn(any));
  EXPECT_FALSE(any.IncludedIn(ab_star));
  EXPECT_TRUE(any.EquivalentTo(FromPattern("(b|a)*")));
  EXPECT_FALSE(any.EquivalentTo(ab_star));
}

TEST(DfaTest, MinimizationPreservesLanguageAndShrinks) {
  // A deliberately redundant DFA for "even number of a's" over {a}.
  Dfa d(1);
  int s0 = d.AddState(true);
  int s1 = d.AddState(false);
  int s2 = d.AddState(true);
  int s3 = d.AddState(false);
  d.SetInitial(s0);
  d.SetTransition(s0, 0, s1);
  d.SetTransition(s1, 0, s2);
  d.SetTransition(s2, 0, s3);
  d.SetTransition(s3, 0, s0);
  Dfa m = d;
  Dfa::MinimizeWorkspace workspace;
  StatusOr<bool> changed = m.Minimize(&workspace);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
  EXPECT_EQ(m.num_states(), 2);
  EXPECT_TRUE(m.EquivalentTo(d));
  EXPECT_EQ(MooreMinimized(d).num_states(), 2);
}

TEST(DfaTest, ReverseAcceptsMirroredWords) {
  Dfa d = FromPattern("a a b");
  Nfa r = Dfa::Reverse(d);
  EXPECT_TRUE(r.Accepts(W({1, 0, 0})));
  EXPECT_FALSE(r.Accepts(W({0, 0, 1})));
}

TEST(DfaTest, ToNfaRoundTrip) {
  Dfa d = FromPattern("a+ b?");
  Nfa n = d.ToNfa();
  Dfa d2 = Dfa::FromNfa(n);
  EXPECT_TRUE(d.EquivalentTo(d2));
}

}  // namespace
}  // namespace xtc
