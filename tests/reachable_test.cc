#include "src/core/reachable.h"

#include <gtest/gtest.h>

#include "src/core/paper_examples.h"
#include "src/schema/witness.h"
#include "src/td/exec.h"
#include "src/tree/codec.h"

namespace xtc {
namespace {

TEST(ReachableTest, BookExamplePairs) {
  PaperExample ex = MakeBookExample(/*with_summary=*/true);
  ReachablePairs reach(*ex.transducer, *ex.din);
  int q = *ex.transducer->FindState("q");
  int p = *ex.transducer->FindState("p");
  int p2 = *ex.transducer->FindState("p2");
  auto sym = [&](const char* s) { return *ex.alphabet->Find(s); };
  // q starts at book and walks everywhere.
  EXPECT_TRUE(reach.IsReachable(q, sym("book")));
  EXPECT_TRUE(reach.IsReachable(q, sym("chapter")));
  EXPECT_TRUE(reach.IsReachable(q, sym("section")));
  EXPECT_TRUE(reach.IsReachable(q, sym("title")));
  // p only processes book's children; p2 only chapter's children.
  EXPECT_TRUE(reach.IsReachable(p, sym("chapter")));
  EXPECT_TRUE(reach.IsReachable(p2, sym("intro")));
  EXPECT_FALSE(reach.IsReachable(p2, sym("book")));
  EXPECT_FALSE(reach.IsReachable(p, sym("paragraph")));
  // q never reaches the root label from below (book cannot nest).
  EXPECT_FALSE(reach.IsReachable(p2, sym("chapter")));
}

TEST(ReachableTest, UnreachableWhenInputLanguageEmpty) {
  Alphabet alphabet;
  alphabet.Intern("r");
  Dtd din(&alphabet, 0);
  ASSERT_TRUE(din.SetRule("r", "r").ok());  // empty language
  Transducer t(&alphabet);
  t.AddState("q0");
  t.SetInitial(0);
  ASSERT_TRUE(t.SetRuleFromString("q0", "r", "r(q0)").ok());
  ReachablePairs reach(t, din);
  EXPECT_FALSE(reach.IsReachable(0, 0));
  EXPECT_TRUE(reach.pairs().empty());
}

TEST(ReachableTest, EmbedWitnessProducesValidContext) {
  PaperExample ex = MakeBookExample(false);
  ReachablePairs reach(*ex.transducer, *ex.din);
  int q = *ex.transducer->FindState("q");
  int section = *ex.alphabet->Find("section");
  ASSERT_TRUE(reach.IsReachable(q, section));
  Arena arena;
  TreeBuilder builder(&arena);
  // Embed a specific section subtree; the result must satisfy d_in and the
  // subtree must appear in it.
  StatusOr<Node*> subtree = ParseTerm("section(title paragraph paragraph)",
                                      ex.alphabet.get(), &builder);
  ASSERT_TRUE(subtree.ok());
  Node* embedded = reach.EmbedWitness(q, section, *subtree,
                                      MinimalTreeCosts(*ex.din), &builder);
  EXPECT_TRUE(ex.din->Valid(embedded));
  EXPECT_NE(ToTermString(embedded, *ex.alphabet)
                .find("section(title paragraph paragraph)"),
            std::string::npos);
}

TEST(ReachableTest, StatesInRhsCollectsSelectorsToo) {
  PaperExample ex = MakeExample22();
  int q = *ex.transducer->FindState("q");
  const RhsHedge* rhs =
      ex.transducer->rule(q, *ex.alphabet->Find("chapter"));
  ASSERT_NE(rhs, nullptr);
  StateSet states(ex.transducer->num_states());
  StatesInRhs(*rhs, &states);
  EXPECT_TRUE(states.Test(q));
}

}  // namespace
}  // namespace xtc
