// Property sweeps over the string-automata substrate: Glushkov + subset +
// complement + minimization agree with each other and with direct word
// evaluation on a catalogue of regexes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fa/dfa.h"
#include "src/fa/regex.h"
#include "tests/moore_oracle.h"

namespace xtc {
namespace {

std::vector<std::vector<int>> AllWords(int num_symbols, int max_len) {
  std::vector<std::vector<int>> words{{}};
  std::size_t begin = 0;
  for (int len = 1; len <= max_len; ++len) {
    std::size_t end = words.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (int s = 0; s < num_symbols; ++s) {
        std::vector<int> w = words[i];
        w.push_back(s);
        words.push_back(std::move(w));
      }
    }
    begin = end;
  }
  return words;
}

class FaPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FaPropertyTest, PipelineAgreesOnAllShortWords) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");
  StatusOr<RegexPtr> re = ParseRegex(GetParam(), &alphabet);
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  Nfa nfa = RegexToNfa(**re, 3);
  Dfa dfa = Dfa::FromNfa(nfa);
  Dfa complete = dfa.Completed();
  Dfa complement = dfa.Complemented();
  Dfa minimized = MooreMinimized(dfa);
  EXPECT_TRUE(minimized.EquivalentTo(dfa));
  EXPECT_LE(minimized.num_states(), complete.num_states());
  EXPECT_EQ(dfa.num_complete_states(), complete.num_states());
  Dfa trimmed = dfa;
  Dfa::MinimizeWorkspace workspace;
  ASSERT_TRUE(trimmed.Minimize(&workspace).ok());
  EXPECT_TRUE(trimmed.EquivalentTo(dfa));
  EXPECT_EQ(trimmed.num_states(), std::max(1, UsefulClasses(minimized)));
  for (const auto& w : AllWords(3, 5)) {
    bool in_nfa = nfa.Accepts(w);
    EXPECT_EQ(dfa.Accepts(w), in_nfa) << GetParam();
    EXPECT_EQ(complete.Accepts(w), in_nfa) << GetParam();
    // The sink view of the same DFA gives Completed()'s answer, and
    // Complemented()'s once the final bit is flipped.
    const int end = dfa.RunComplete(dfa.initial(), w);
    ASSERT_LT(end, dfa.num_complete_states()) << GetParam();
    EXPECT_EQ(dfa.final(end), complete.Accepts(w)) << GetParam();
    EXPECT_EQ(!dfa.final(end), complement.Accepts(w)) << GetParam();
    EXPECT_NE(complement.Accepts(w), in_nfa) << GetParam();
    EXPECT_EQ(minimized.Accepts(w), in_nfa) << GetParam();
  }
  // Double complement restores the language.
  EXPECT_TRUE(complement.Complemented().EquivalentTo(dfa));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaPropertyTest,
    ::testing::Values("a", "%", "a b c", "(a|b)*", "(a|b)* a", "a+ b+ c+",
                      "a? b? c?", "(a b)* c", "a (b | %) a", "((a|b) c)*",
                      "(a|b|c)* a (a|b|c)", "a* b* c*", "(a+ | b+) c?",
                      "((a | b c)+ | c) a?"));

TEST(FaPropertyTest, ReverseOfReverseIsOriginal) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  for (const char* pattern : {"a b", "(a|b)* a", "a+ b?"}) {
    StatusOr<RegexPtr> re = ParseRegex(pattern, &alphabet);
    ASSERT_TRUE(re.ok());
    Dfa d = Dfa::FromNfa(RegexToNfa(**re, 2));
    Dfa rr = Dfa::FromNfa(Dfa::Reverse(Dfa::FromNfa(Dfa::Reverse(d))));
    EXPECT_TRUE(rr.EquivalentTo(d)) << pattern;
  }
}

TEST(FaPropertyTest, ProductLawsHold) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  StatusOr<RegexPtr> r1 = ParseRegex("(a|b)* a", &alphabet);
  StatusOr<RegexPtr> r2 = ParseRegex("a (a|b)*", &alphabet);
  ASSERT_TRUE(r1.ok() && r2.ok());
  Dfa x = Dfa::FromNfa(RegexToNfa(**r1, 2));
  Dfa y = Dfa::FromNfa(RegexToNfa(**r2, 2));
  Dfa x_and_y = Dfa::Product(x, y, Dfa::BoolOp::kAnd);
  Dfa x_or_y = Dfa::Product(x, y, Dfa::BoolOp::kOr);
  Dfa x_diff_y = Dfa::Product(x, y, Dfa::BoolOp::kDiff);
  // De Morgan: x ∪ y = ¬(¬x ∩ ¬y).
  Dfa demorgan = Dfa::Product(x.Complemented(), y.Complemented(),
                              Dfa::BoolOp::kAnd)
                     .Complemented();
  EXPECT_TRUE(x_or_y.EquivalentTo(demorgan));
  // diff = and-with-complement.
  Dfa diff2 = Dfa::Product(x, y.Complemented(), Dfa::BoolOp::kAnd);
  EXPECT_TRUE(x_diff_y.EquivalentTo(diff2));
  // x ∩ y ⊆ x ⊆ x ∪ y.
  EXPECT_TRUE(x_and_y.IncludedIn(x));
  EXPECT_TRUE(x.IncludedIn(x_or_y));
}

}  // namespace
}  // namespace xtc
