#include "src/core/replus.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/budget.h"
#include "src/core/brute_force.h"
#include "src/core/minvast.h"
#include "src/core/trac.h"
#include "src/td/widths.h"
#include "src/tree/codec.h"
#include "src/workload/families.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

PaperExample BookInstance() {
  // The book schemas are DTD(RE+) except the output rules, so build a pure
  // RE+ variant: ToC against a permissive RE+ schema.
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  for (const char* s : {"book", "title", "author", "chapter", "intro",
                        "section", "paragraph"}) {
    ex.alphabet->Intern(s);
  }
  int book = *ex.alphabet->Find("book");
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), book);
  EXPECT_TRUE(ex.din->SetRule("book", "title author+ chapter+").ok());
  EXPECT_TRUE(ex.din->SetRule("chapter", "title intro section+").ok());
  // Non-recursive RE+ variant of the section rule.
  EXPECT_TRUE(ex.din->SetRule("section", "title paragraph+").ok());
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q = ex.transducer->AddState("q");
  ex.transducer->SetInitial(q);
  EXPECT_TRUE(ex.transducer->SetRuleFromString("q", "book", "book(q)").ok());
  EXPECT_TRUE(
      ex.transducer->SetRuleFromString("q", "chapter", "chapter q").ok());
  EXPECT_TRUE(ex.transducer->SetRuleFromString("q", "title", "title").ok());
  EXPECT_TRUE(ex.transducer->SetRuleFromString("q", "section", "q").ok());
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), book);
  // Every chapter yields its own title plus one per section.
  EXPECT_TRUE(ex.dout->SetRule("book", "title chapter title title+").ok());
  return ex;
}

TEST(RePlusTypecheckTest, SingleChapterInstanceTypechecks) {
  PaperExample ex = BookInstance();
  // Restrict to exactly one chapter so the output schema above is tight.
  ASSERT_TRUE(ex.din->SetRule("book", "title author+ chapter").ok());
  StatusOr<TypecheckResult> r =
      TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->typechecks);
}

TEST(RePlusTypecheckTest, MultiChapterViolatesTightSchema) {
  PaperExample ex = BookInstance();  // chapter+ in d_in
  StatusOr<TypecheckResult> r =
      TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  ASSERT_NE(r->counterexample, nullptr);
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
}

TEST(RePlusTypecheckTest, RejectsNonRePlusSchemas) {
  PaperExample ex = MakeBookExample(false);  // d_out uses ( | )*, not RE+
  StatusOr<TypecheckResult> r =
      TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RePlusTypecheckTest, UnboundedCopyingFamilyIsPolynomial) {
  // Copying width 12 would be hopeless for the Lemma 14 engine; the
  // Section 5 grammar engine handles it easily.
  PaperExample ex = RePlusCopyFamily(12);
  StatusOr<TypecheckResult> r =
      TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->typechecks);
}

TEST(RePlusTypecheckTest, UnboundedCopyingCatchesParityViolation) {
  PaperExample ex = RePlusCopyFamily(2);
  // Two copies of a+ make an even count at least 2; demanding exactly three
  // a's must fail... demanding at least three must succeed only if some
  // input has >= 2 a's, so it fails on the singleton input.
  ASSERT_TRUE(ex.dout->SetRule("r", "a a a+").ok());
  StatusOr<TypecheckResult> r =
      TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
}

TEST(MinVastTest, AgreesOnBookInstances) {
  PaperExample good = BookInstance();
  ASSERT_TRUE(good.din->SetRule("book", "title author+ chapter").ok());
  StatusOr<TypecheckResult> r1 =
      TypecheckMinVast(*good.transducer, *good.din, *good.dout);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->typechecks);

  PaperExample bad = BookInstance();
  StatusOr<TypecheckResult> r2 =
      TypecheckMinVast(*bad.transducer, *bad.din, *bad.dout);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->typechecks);
  EXPECT_TRUE(VerifyCounterexample(*bad.transducer, *bad.din, *bad.dout,
                                   r2->counterexample));
}

// Property sweep: min/vast (the production engine for DTD(RE+); Route()
// sends every such instance to it) agrees with the Section 5 grammar
// engine, with brute force, and with the Lemma 14 engine where the widths
// allow it. Every "fails" carries a verified counterexample, and min/vast's
// is at most twice the size of the Lemma 14 engine's.
class RePlusRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(RePlusRandomTest, EnginesAgree) {
  RandomOptions opts;
  opts.num_symbols = 4;
  opts.num_states = 3;
  PaperExample ex =
      RandomInstance(static_cast<std::uint32_t>(GetParam()), opts, true);
  StatusOr<TypecheckResult> grammar =
      TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(grammar.ok()) << grammar.status().ToString();
  StatusOr<TypecheckResult> minvast =
      TypecheckMinVast(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(minvast.ok()) << minvast.status().ToString();
  EXPECT_EQ(grammar->typechecks, minvast->typechecks);
  if (!grammar->typechecks && grammar->counterexample != nullptr) {
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     grammar->counterexample));
  }
  if (!minvast->typechecks) {
    ASSERT_NE(minvast->counterexample, nullptr);
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     minvast->counterexample));
  }
  StatusOr<TypecheckResult> brute =
      TypecheckBruteForce(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  // Brute force is complete only within its bounds.
  if (!brute->typechecks) {
    EXPECT_FALSE(minvast->typechecks);
  }
  // Cross-check with the Lemma 14 engine when the widths allow it.
  WidthAnalysis w = AnalyzeWidths(*ex.transducer);
  if (w.dpw_bounded && w.copying_width * w.deletion_path_width <= 6) {
    StatusOr<TypecheckResult> trac =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(trac.ok());
    EXPECT_EQ(trac->typechecks, grammar->typechecks);
    if (!trac->typechecks && !minvast->typechecks) {
      ASSERT_NE(trac->counterexample, nullptr);
      EXPECT_LE(NodeCount(minvast->counterexample),
                2 * NodeCount(trac->counterexample));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RePlusRandomTest, ::testing::Range(0, 300));

// min/vast against the Section 5 grammar oracle on the deleting copier of
// xtcbench's replus class: `copies` copies of a deleted node's children,
// each a run of m + blocks, must meet d_out's rule in order. A second
// shape puts a b1 before the copies in the deleted node's rhs; it merges
// into the first b1+ run, so the verdict stays, but the rhs is no longer
// one state repeated. Composing an effect table's children or its rhs in
// reverse order then flips the verdict of typechecking instances.
TEST(MinVastDifferentialTest, AgreesWithGrammarOracleOnDeletingCopier) {
  std::vector<std::pair<int, int>> sizes = {{11, 8}};
  for (int m = 1; m <= 4; ++m) {
    for (int copies = 1; copies <= 4; ++copies) sizes.emplace_back(m, copies);
  }
  for (const auto& [m, copies] : sizes) {
    for (int shape = 0; shape < 4; ++shape) {
      const bool failing = (shape & 1) != 0;
      const bool lead = (shape & 2) != 0;
      SCOPED_TRACE(testing::Message() << "m=" << m << " copies=" << copies
                                      << " failing=" << failing
                                      << " lead=" << lead);
      PaperExample ex = RePlusDeletingFamily(m, copies, failing);
      if (lead) {
        std::string rhs = "b1";
        for (int c = 0; c < copies; ++c) rhs += " q";
        ASSERT_TRUE(ex.transducer->SetRuleFromString("q", "a", rhs).ok());
      }
      // The oracle builds its counterexamples with min/vast, so only its
      // verdict is asked for.
      TypecheckOptions verdict_only;
      verdict_only.want_counterexample = false;
      StatusOr<TypecheckResult> grammar =
          TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout, verdict_only);
      ASSERT_TRUE(grammar.ok()) << grammar.status().ToString();
      StatusOr<TypecheckResult> minvast =
          TypecheckMinVast(*ex.transducer, *ex.din, *ex.dout);
      ASSERT_TRUE(minvast.ok()) << minvast.status().ToString();
      EXPECT_EQ(minvast->typechecks, grammar->typechecks);
      EXPECT_EQ(grammar->typechecks, !failing || m == 1);
      if (!minvast->typechecks) {
        ASSERT_NE(minvast->counterexample, nullptr);
        EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                         minvast->counterexample));
      }
    }
  }
}

// Exact min/vast counts. They do not depend on how an effect table is
// computed: the memo's key set fixes `evaluations` (effect tables plus
// validity entries) and the order of its misses fixes the budget
// checkpoints, so a change to either moves these numbers. `configs` is the
// witness DAG's size.
struct MinVastPin {
  const char* name;
  PaperExample (*make)();
  bool typechecks;
  std::uint64_t configs;
  std::uint64_t evaluations;
  std::uint64_t budget_checkpoints;
  std::string counterexample;  // empty where the instance typechecks
};

// RePlusVastChainFamily(d)'s shrunk witness: t_min of every x_i/y_i pair
// down to level d, with one extra y_d under the rightmost y_{d-1}.
std::string VastChainWitness(int d) {
  std::function<std::string(int, const char*, bool)> node =
      [&](int i, const char* s, bool rightmost) {
        std::string out = s + std::to_string(i);
        if (i == d) return out;
        out += "(" + node(i + 1, "x", false) + " " +
               node(i + 1, "y", rightmost);
        if (rightmost && i + 1 == d) out += " y" + std::to_string(d);
        return out + ")";
      };
  return "r(" + node(1, "x", false) + " " + node(1, "y", true) + ")";
}

TEST(MinVastCountPinTest, CountsAreExact) {
  const MinVastPin pins[] = {
      {"RePlusCopyFamily(1)", [] { return RePlusCopyFamily(1); }, true, 3, 2,
       2, ""},
      {"RePlusCopyFamily(4)", [] { return RePlusCopyFamily(4); }, true, 3, 2,
       2, ""},
      {"RePlusCopyFamily(16)", [] { return RePlusCopyFamily(16); }, true, 3,
       2, 2, ""},
      {"RePlusVastChainFamily(3)", [] { return RePlusVastChainFamily(3); },
       false, 12, 36, 36, VastChainWitness(3)},
      {"RePlusVastChainFamily(5)", [] { return RePlusVastChainFamily(5); },
       false, 20, 94, 94, VastChainWitness(5)},
      {"RePlusVastChainFamily(7)", [] { return RePlusVastChainFamily(7); },
       false, 28, 176, 176, VastChainWitness(7)},
      {"RePlusDeletingFamily(4,2)",
       [] { return RePlusDeletingFamily(4, 2, false); }, true, 8, 12, 12, ""},
      {"RePlusDeletingFamily(4,2,failing)",
       [] { return RePlusDeletingFamily(4, 2, true); }, false, 8, 5, 5,
       "r(a(b1 b2 b3 b4))"},
      {"RePlusDeletingFamily(11,8)",
       [] { return RePlusDeletingFamily(11, 8, false); }, true, 15, 26, 26,
       ""},
      {"RePlusDeletingFamily(11,8,failing)",
       [] { return RePlusDeletingFamily(11, 8, true); }, false, 15, 12, 12,
       "r(a(b1 b2 b3 b4 b5 b6 b7 b8 b9 b10 b11))"},
  };
  for (const MinVastPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    PaperExample ex = pin.make();
    Budget budget;
    TypecheckOptions options;
    options.budget = &budget;
    StatusOr<TypecheckResult> r =
        TypecheckMinVast(*ex.transducer, *ex.din, *ex.dout, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->typechecks, pin.typechecks);
    EXPECT_EQ(r->stats.configs, pin.configs);
    EXPECT_EQ(r->stats.evaluations, pin.evaluations);
    EXPECT_EQ(r->stats.budget_checkpoints, pin.budget_checkpoints);
    if (!pin.counterexample.empty()) {
      ASSERT_NE(r->counterexample, nullptr);
      EXPECT_EQ(ToTermString(r->counterexample, *ex.alphabet),
                pin.counterexample);
      EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                       r->counterexample));
    }
  }
}

// Only t_vast is a counterexample here, and it unfolds to (4^{d+1}-1)/3
// nodes (over the materialization cap at d = 10). Typecheck() must return
// a verified witness at most twice the Lemma 14 engine's (2^{d+1} nodes).
TEST(MinVastWitnessTest, VastOnlyChainShrinksToTracSize) {
  for (int d = 4; d <= 10; ++d) {
    SCOPED_TRACE(d);
    PaperExample ex = RePlusVastChainFamily(d);
    StatusOr<TypecheckResult> r =
        Typecheck(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.route.engine, RouteEngine::kMinVast);
    EXPECT_FALSE(r->typechecks);
    ASSERT_NE(r->counterexample, nullptr);
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     r->counterexample));
    StatusOr<TypecheckResult> trac =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(trac.ok() && trac->counterexample != nullptr);
    EXPECT_EQ(NodeCount(trac->counterexample), std::size_t{2} << d);
    EXPECT_LE(NodeCount(r->counterexample),
              2 * NodeCount(trac->counterexample));
  }
}

// A counterexample that cannot shrink below the materialization cap: only
// t_vast fails (it repeats `a`), and every input tree carries a complete
// binary b-tree of 2^21 - 1 nodes. min/vast must report kResourceExhausted,
// not a failing verdict without a counterexample.
TEST(MinVastWitnessTest, OversizedWitnessIsResourceExhausted) {
  constexpr int kDepth = 20;
  Alphabet alphabet;
  alphabet.Intern("r");
  alphabet.Intern("a");
  auto b = [](int i) { return "b" + std::to_string(i); };
  for (int i = 0; i <= kDepth; ++i) alphabet.Intern(b(i));
  Dtd din(&alphabet, 0);
  Dtd dout(&alphabet, 0);
  ASSERT_TRUE(din.SetRule("r", "a+ b0").ok());
  ASSERT_TRUE(dout.SetRule("r", "a b0").ok());
  Transducer t(&alphabet);
  t.SetInitial(t.AddState("q"));
  ASSERT_TRUE(t.SetRuleFromString("q", "r", "r(q)").ok());
  ASSERT_TRUE(t.SetRuleFromString("q", "a", "a(q)").ok());
  for (int i = 0; i <= kDepth; ++i) {
    if (i < kDepth) {
      const std::string kids = b(i + 1) + " " + b(i + 1);
      ASSERT_TRUE(din.SetRule(b(i), kids).ok());
      ASSERT_TRUE(dout.SetRule(b(i), kids).ok());
    }
    ASSERT_TRUE(t.SetRuleFromString("q", b(i), b(i) + "(q)").ok());
  }
  ASSERT_GT(std::uint64_t{2} << kDepth, kMaxCounterexampleNodes);

  StatusOr<TypecheckResult> r = Typecheck(t, din, dout);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  // Without a counterexample the verdict itself is cheap.
  TypecheckOptions options;
  options.want_counterexample = false;
  StatusOr<TypecheckResult> verdict = Typecheck(t, din, dout, options);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_FALSE(verdict->typechecks);
}

// A budget that trips while the counterexample is being shrunk ends the run
// at once with kResourceExhausted. At d = 30 the unfolded t_vast has about
// 4^31/3 positions; a shrink that kept walking after the trip would never
// return.
TEST(MinVastWitnessTest, BudgetTripDuringShrinkIsPromptlyExhausted) {
  PaperExample ex = RePlusVastChainFamily(30);
  Budget verdict_only;
  TypecheckOptions options;
  options.budget = &verdict_only;
  options.want_counterexample = false;
  StatusOr<TypecheckResult> verdict =
      Typecheck(*ex.transducer, *ex.din, *ex.dout, options);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ASSERT_FALSE(verdict->typechecks);
  const std::uint64_t verdict_checkpoints = verdict_only.checkpoints();

  for (std::uint64_t extra : {1, 50, 1000}) {
    SCOPED_TRACE(extra);
    Budget budget;
    budget.set_fail_at_checkpoint(verdict_checkpoints + extra);
    options.budget = &budget;
    options.want_counterexample = true;
    StatusOr<TypecheckResult> r =
        Typecheck(*ex.transducer, *ex.din, *ex.dout, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(budget.cause(), ExhaustionCause::kInjected);
    EXPECT_EQ(budget.checkpoints(), verdict_checkpoints + extra);
  }
}

}  // namespace
}  // namespace xtc
