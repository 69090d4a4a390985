// The NTA-schema variant of Theorem 20: input and output given as arbitrary
// NTA(NFA)s. The output automaton is #-eliminated and complemented on the
// fly by the lazy engine's subset construction, so a nondeterministic output
// automaton needs no determinization or completion up front. That subset
// construction is worst-case exponential (the EXPTIME cells of Table 1),
// even for a deterministic output automaton, and is paid only on the
// subsets the product reaches.

#include <gtest/gtest.h>

#include "src/core/relab.h"
#include "src/core/typecheck.h"
#include "src/nta/analysis.h"
#include "src/nta/completion.h"
#include "src/nta/determinize.h"
#include "src/nta/product.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

TEST(RelabNtaTest, NondeterministicSchemasViaDeterminization) {
  // Input language: the union of two DTD automata (genuinely
  // nondeterministic as an NTA); output: the relabeled version, also as a
  // union, both determinized to a DTAc and as is.
  PaperExample ex = RelabFamily(2);  // r -> a a, relabel a -> b, out r -> b b
  Alphabet* alphabet = ex.alphabet.get();
  // A second input variant: r -> a a a, with output r -> b b b.
  Dtd din2(alphabet, *alphabet->Find("r"));
  ASSERT_TRUE(din2.SetRule("r", "a a a").ok());
  Dtd dout2(alphabet, *alphabet->Find("r"));
  ASSERT_TRUE(dout2.SetRule("r", "b b b").ok());

  Nta ain = DisjointUnion(Nta::FromDtd(*ex.din), Nta::FromDtd(din2));
  Nta aout_union = DisjointUnion(Nta::FromDtd(*ex.dout), Nta::FromDtd(dout2));
  StatusOr<Nta> aout_det = DeterminizeToDtac(aout_union, 4096);
  ASSERT_TRUE(aout_det.ok()) << aout_det.status().ToString();
  ASSERT_TRUE(IsBottomUpDeterministic(*aout_det));
  ASSERT_TRUE(IsComplete(*aout_det));

  ASSERT_FALSE(IsBottomUpDeterministic(aout_union));

  // The engine complements the output on the fly, so the union itself is an
  // equally good output automaton: both must typecheck.
  for (const Nta* aout : {&*aout_det, &aout_union}) {
    StatusOr<TypecheckResult> r =
        TypecheckDelRelabNta(*ex.transducer, ain, *aout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->typechecks);
  }

  // Remove the three-b alternative from the output: the r(a a a) inputs now
  // violate, so the instance fails, determinized or not.
  StatusOr<Nta> tight = DeterminizeToDtac(Nta::FromDtd(*ex.dout), 4096);
  ASSERT_TRUE(tight.ok());
  Nta tight_nta = Nta::FromDtd(*ex.dout);
  for (const Nta* aout : {&*tight, &tight_nta}) {
    StatusOr<TypecheckResult> r2 =
        TypecheckDelRelabNta(*ex.transducer, ain, *aout);
    ASSERT_TRUE(r2.ok());
    EXPECT_FALSE(r2->typechecks);
  }
}

TEST(RelabNtaTest, OutputLanguageThroughNondeterministicInput) {
  // L(B_in) for a nondeterministic input automaton: the filter transducer
  // over the union of two section DTDs.
  PaperExample ex = FilterFamily(2);
  Nta ain = DisjointUnion(Nta::FromDtd(*ex.din), Nta::FromDtd(*ex.din));
  const int hash = ex.alphabet->size();
  StatusOr<Nta> bin = OutputLanguageNta(*ex.transducer, ain, hash);
  ASSERT_TRUE(bin.ok()) << bin.status().ToString();
  EXPECT_FALSE(IsEmptyLanguage(*bin));
  // Doubling the input automaton must not change the output language's
  // emptiness or the typechecking verdict.
  StatusOr<Nta> aout =
      DeterminizeToDtac(Nta::FromDtd(*ex.dout), 4096);
  ASSERT_TRUE(aout.ok());
  StatusOr<TypecheckResult> r =
      TypecheckDelRelabNta(*ex.transducer, ain, *aout);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->typechecks);
}

TEST(RelabNtaTest, DeletingRootContributesNoOutputTree) {
  // q0 deletes at the root, so T(r(a a)) is the hedge `b b`, not a tree.
  // Theorem 20 over NTAs gives such roots no output tree at all: B_in does
  // not accept #-rooted trees, so the instance typechecks, whether the
  // output automaton is a DTAc or not. The Dtd entry point rejects the
  // instance up front (Definition 5).
  PaperExample ex = RelabFamily(2);
  Transducer t(ex.alphabet.get());
  t.AddState("q0");
  t.AddState("q");
  t.SetInitial(0);
  ASSERT_TRUE(t.SetRuleFromString("q0", "r", "q").ok());
  ASSERT_TRUE(t.SetRuleFromString("q", "a", "b").ok());
  Nta ain = Nta::FromDtd(*ex.din);
  StatusOr<Nta> dtac = DeterminizeToDtac(Nta::FromDtd(*ex.dout), 4096);
  ASSERT_TRUE(dtac.ok());
  for (const Nta& aout : {*dtac, Nta::FromDtd(*ex.dout)}) {
    StatusOr<TypecheckResult> r = TypecheckDelRelabNta(t, ain, aout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->typechecks);
  }
  // A missing root rule yields the single leaf #: no output tree either.
  Transducer bare(ex.alphabet.get());
  bare.AddState("q0");
  bare.SetInitial(0);
  StatusOr<TypecheckResult> r = TypecheckDelRelabNta(bare, ain, *dtac);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->typechecks);

  StatusOr<TypecheckResult> dtd = TypecheckDelRelab(t, *ex.din, *ex.dout);
  ASSERT_TRUE(dtd.ok());
  EXPECT_FALSE(dtd->typechecks);
  ASSERT_NE(dtd->counterexample, nullptr);
  EXPECT_TRUE(
      VerifyCounterexample(t, *ex.din, *ex.dout, dtd->counterexample));
}

}  // namespace
}  // namespace xtc
