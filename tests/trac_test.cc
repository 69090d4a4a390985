#include "src/core/trac.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/brute_force.h"
#include "src/core/paper_examples.h"
#include "src/td/widths.h"
#include "src/tree/codec.h"
#include "src/workload/families.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

TEST(TracTest, Example11Typechecks) {
  // The book summary transducer typechecks against Example 11's DTD.
  PaperExample ex = MakeBookExample(/*with_summary=*/true);
  StatusOr<TypecheckResult> r = TypecheckTrac(*ex.transducer, *ex.din,
                                              *ex.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->typechecks);
}

TEST(TracTest, TocTransducerTypechecks) {
  PaperExample ex = MakeBookExample(/*with_summary=*/false);
  StatusOr<TypecheckResult> r = TypecheckTrac(*ex.transducer, *ex.din,
                                              *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->typechecks);
}

TEST(TracTest, TightenedOutputSchemaFailsWithCounterexample) {
  PaperExample ex = MakeBookExample(/*with_summary=*/false);
  // Demand exactly one title after each chapter: deeper sections violate it.
  ASSERT_TRUE(ex.dout->SetRule("book", "title (chapter title)+").ok());
  StatusOr<TypecheckResult> r = TypecheckTrac(*ex.transducer, *ex.din,
                                              *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  ASSERT_NE(r->counterexample, nullptr);
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
}

TEST(TracTest, MissingInitialRuleFails) {
  PaperExample ex = MakeBookExample(false);
  Transducer empty(ex.alphabet.get());
  empty.AddState("q0");
  empty.SetInitial(0);
  StatusOr<TypecheckResult> r = TypecheckTrac(empty, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  ASSERT_NE(r->counterexample, nullptr);
  EXPECT_TRUE(VerifyCounterexample(empty, *ex.din, *ex.dout,
                                   r->counterexample));
}

TEST(TracTest, WrongRootLabelFails) {
  PaperExample ex = MakeBookExample(false);
  Transducer t(ex.alphabet.get());
  t.AddState("q0");
  t.SetInitial(0);
  ASSERT_TRUE(t.SetRuleFromString("q0", "book", "title").ok());
  StatusOr<TypecheckResult> r = TypecheckTrac(t, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  EXPECT_TRUE(VerifyCounterexample(t, *ex.din, *ex.dout, r->counterexample));
}

TEST(TracTest, EmptyInputLanguageTypechecksVacuously) {
  Alphabet alphabet;
  alphabet.Intern("r");
  Dtd din(&alphabet, 0);
  ASSERT_TRUE(din.SetRule("r", "r").ok());  // recursive: empty language
  Dtd dout(&alphabet, 0);
  Transducer t(&alphabet);
  t.AddState("q0");
  t.SetInitial(0);
  StatusOr<TypecheckResult> r = TypecheckTrac(t, din, dout);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->typechecks);
}

TEST(TracTest, FilterFamilyTypechecksAndFailingVariantDoesNot) {
  for (int n = 1; n <= 4; ++n) {
    PaperExample good = FilterFamily(n);
    StatusOr<TypecheckResult> r1 =
        TypecheckTrac(*good.transducer, *good.din, *good.dout);
    ASSERT_TRUE(r1.ok());
    EXPECT_TRUE(r1->typechecks) << n;

    PaperExample bad = FailingFilterFamily(n);
    StatusOr<TypecheckResult> r2 =
        TypecheckTrac(*bad.transducer, *bad.din, *bad.dout);
    ASSERT_TRUE(r2.ok());
    EXPECT_FALSE(r2->typechecks) << n;
    ASSERT_NE(r2->counterexample, nullptr);
    EXPECT_TRUE(VerifyCounterexample(*bad.transducer, *bad.din, *bad.dout,
                                     r2->counterexample))
        << ToTermString(r2->counterexample, *bad.alphabet);
  }
}

TEST(TracTest, WidthFamilies) {
  for (int c = 1; c <= 3; ++c) {
    for (int k = 0; k <= 2; ++k) {
      PaperExample ex = WidthFamily(c, k);
      StatusOr<TypecheckResult> r =
          TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
      ASSERT_TRUE(r.ok()) << c << "," << k << ": " << r.status().ToString();
      EXPECT_TRUE(r->typechecks) << c << "," << k;
    }
  }
}

TEST(TracTest, DeepCounterexampleThroughDeletion) {
  // Require at least 4 titles: only documents with nested sections comply;
  // the typechecker must find a counterexample with few sections.
  PaperExample ex = FilterFamily(1);
  Status s = ex.dout->SetRule("root", "title title title title title*");
  ASSERT_TRUE(s.ok());
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
}

// Property sweep: on random small instances, whenever the engine reports a
// counterexample it must verify, and whenever it reports success the
// bounded-exhaustive oracle must find no counterexample.
class TracRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TracRandomTest, AgreesWithBruteForceOracle) {
  RandomOptions opts;
  opts.num_symbols = 3;
  opts.num_states = 3;
  PaperExample ex =
      RandomInstance(static_cast<std::uint32_t>(GetParam()), opts, false);
  WidthAnalysis w = AnalyzeWidths(*ex.transducer);
  if (!w.dpw_bounded || w.copying_width * w.deletion_path_width > 6) {
    GTEST_SKIP() << "instance outside the tractable sweep";
  }
  TypecheckOptions topts;
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, topts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (!r->typechecks) {
    ASSERT_NE(r->counterexample, nullptr);
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     r->counterexample))
        << ToTermString(r->counterexample, *ex.alphabet);
  } else {
    BruteForceOptions bf;
    bf.max_depth = 4;
    bf.max_width = 3;
    bf.max_trees = 30000;
    StatusOr<TypecheckResult> brute =
        TypecheckBruteForce(*ex.transducer, *ex.din, *ex.dout, bf);
    ASSERT_TRUE(brute.ok());
    EXPECT_TRUE(brute->typechecks)
        << "missed counterexample "
        << ToTermString(brute->counterexample, *ex.alphabet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracRandomTest, ::testing::Range(0, 60));

// Count pins: the exact configs / evaluations / product states that the
// fixpoint explores on fixed families, and the exact counterexamples it
// returns. Any change to exploration order, to the candidate enumeration
// (say, a memo that drops or adds a singleton lookup) or to the rule DFAs
// the schemas hand out (they are minimal and trimmed) moves these numbers.
struct CountPin {
  const char* name;
  PaperExample (*make)();
  std::uint64_t configs;
  std::uint64_t evaluations;
  std::uint64_t product_states;
};

TEST(TracCountPinTest, ExplorationCountsAreExact) {
  const CountPin pins[] = {
      {"WidthFamily(7,7)", [] { return WidthFamily(7, 7); }, 37, 62, 446},
      {"WidthFamily(3,3)", [] { return WidthFamily(3, 3); }, 21, 34, 74},
      {"FilterFamily(6)", [] { return FilterFamily(6); }, 22, 36, 54},
      {"FilterFamily(13)", [] { return FilterFamily(13); }, 36, 57, 96},
      {"FailingFilterFamily(6)", [] { return FailingFilterFamily(6); }, 28,
       49, 73},
      {"FailingFilterFamily(13)", [] { return FailingFilterFamily(13); }, 42,
       70, 115},
      // Copies of different transducer states meet the same child symbol
      // and DFA state here, so a candidate memo keyed without the copy
      // state moves these counts (the families above do not notice).
      {"Example 11", [] { return MakeBookExample(/*with_summary=*/true); },
       79, 104, 203},
      {"RandomInstance(18)",
       [] {
         RandomOptions opts;
         opts.num_symbols = 3;
         opts.num_states = 3;
         return RandomInstance(18, opts, false);
       },
       16, 18, 9},
  };
  for (const CountPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    PaperExample ex = pin.make();
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.configs, pin.configs);
    EXPECT_EQ(r->stats.evaluations, pin.evaluations);
    EXPECT_EQ(r->stats.product_states, pin.product_states);
  }
}

TEST(TracCountPinTest, CounterexamplesAreExact) {
  for (int n = 6; n <= 13; ++n) {
    SCOPED_TRACE(n);
    PaperExample ex = FailingFilterFamily(n);
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->typechecks);
    ASSERT_NE(r->counterexample, nullptr);
    EXPECT_EQ(ToTermString(r->counterexample, *ex.alphabet),
              "root(sec0(title))");
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     r->counterexample));
  }
  {
    // The instance of TracTest.TightenedOutputSchemaFailsWithCounterexample.
    PaperExample ex = MakeBookExample(/*with_summary=*/false);
    ASSERT_TRUE(ex.dout->SetRule("book", "title (chapter title)+").ok());
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->counterexample, nullptr);
    EXPECT_EQ(ToTermString(r->counterexample, *ex.alphabet),
              "book(title author chapter(title intro section(title "
              "paragraph)))");
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     r->counterexample));
    EXPECT_EQ(r->stats.configs, 31u);
    EXPECT_EQ(r->stats.evaluations, 58u);
    EXPECT_EQ(r->stats.product_states, 92u);
  }
  // The instance of TracTest.DeepCounterexampleThroughDeletion.
  PaperExample ex = FilterFamily(1);
  ASSERT_TRUE(ex.dout->SetRule("root", "title title title title title*").ok());
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->typechecks);
  ASSERT_NE(r->counterexample, nullptr);
  EXPECT_EQ(ToTermString(r->counterexample, *ex.alphabet),
            "root(sec0(title))");
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
  EXPECT_EQ(r->stats.configs, 14u);
  EXPECT_EQ(r->stats.evaluations, 21u);
  EXPECT_EQ(r->stats.product_states, 21u);
}

TEST(TracTest, StatsAreReported) {
  PaperExample ex = MakeBookExample(true);
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.configs, 0u);
  EXPECT_GT(r->stats.evaluations, 0u);
}

}  // namespace
}  // namespace xtc
