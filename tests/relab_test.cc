#include "src/core/relab.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "src/base/logging.h"
#include "src/core/brute_force.h"
#include "src/core/nfa_dtd.h"
#include "src/core/paper_examples.h"
#include "src/core/trac.h"
#include "src/nta/analysis.h"
#include "src/nta/completion.h"
#include "src/nta/product.h"
#include "src/td/classes.h"
#include "src/td/exec.h"
#include "src/tree/codec.h"
#include "src/workload/families.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

// Reference implementation of the #-marked totalized transducer T':
// top-level states are wrapped as #(...), missing rules yield the leaf #.
Hedge ApplyMarked(const Transducer& t, int state, const Node* input, int hash,
                  TreeBuilder* b);

void ExpandMarked(const Transducer& t, const RhsNode& n, const Node* input,
                  int hash, TreeBuilder* b, Hedge* out, bool top_level) {
  if (n.kind == RhsNode::Kind::kState) {
    Hedge sub;
    for (const Node* c : input->Children()) {
      Hedge h = ApplyMarked(t, n.state, c, hash, b);
      sub.insert(sub.end(), h.begin(), h.end());
    }
    if (top_level) {
      out->push_back(b->Make(hash, sub));
    } else {
      out->insert(out->end(), sub.begin(), sub.end());
    }
    return;
  }
  Hedge kids;
  for (const RhsNode& c : n.children) {
    ExpandMarked(t, c, input, hash, b, &kids, /*top_level=*/false);
  }
  out->push_back(b->Make(n.label, kids));
}

Hedge ApplyMarked(const Transducer& t, int state, const Node* input, int hash,
                  TreeBuilder* b) {
  const RhsHedge* rhs = t.rule(state, input->label);
  Hedge out;
  if (rhs == nullptr || rhs->empty()) {
    out.push_back(b->Leaf(hash));
    return out;
  }
  for (const RhsNode& n : *rhs) {
    ExpandMarked(t, n, input, hash, b, &out, /*top_level=*/true);
  }
  return out;
}

TEST(Lemma19Test, OutputLanguageMatchesDirectTransformation) {
  // ToC transducer (del-relab) over the book DTD: B_in must accept exactly
  // the #-marked translations of valid inputs.
  PaperExample ex = MakeBookExample(false);
  ASSERT_TRUE(IsDelRelab(*ex.transducer));
  Nta ain = Nta::FromDtd(*ex.din);
  const int hash = ex.alphabet->size();
  StatusOr<Nta> bin = OutputLanguageNta(*ex.transducer, ain, hash);
  ASSERT_TRUE(bin.ok()) << bin.status().ToString();
  EXPECT_FALSE(IsEmptyLanguage(*bin));
  EXPECT_EQ(bin->num_symbols(), hash + 1);

  Arena arena;
  TreeBuilder builder(&arena);
  BruteForceOptions opts;
  opts.max_depth = 5;
  opts.max_width = 3;
  opts.max_trees = 40;
  StatusOr<std::vector<Node*>> inputs =
      EnumerateValidTrees(*ex.din, ex.din->start(), opts, &builder);
  ASSERT_TRUE(inputs.ok());
  ASSERT_FALSE(inputs->empty());
  for (Node* input : *inputs) {
    Hedge marked =
        ApplyMarked(*ex.transducer, ex.transducer->initial(), input, hash,
                    &builder);
    ASSERT_EQ(marked.size(), 1u);
    EXPECT_TRUE(bin->Accepts(marked[0]))
        << "T'(t) rejected for t = " << ToTermString(input, *ex.alphabet);
    // A perturbed output (extra trailing # child at the root) must be
    // rejected: B_in captures the exact image.
    std::vector<Node*> kids(marked[0]->Children().begin(),
                            marked[0]->Children().end());
    kids.push_back(builder.Leaf(hash));
    Node* perturbed = builder.Make(marked[0]->label, kids);
    EXPECT_FALSE(bin->Accepts(perturbed));
  }
}

TEST(HashEliminationTest, AcceptsIffSplicedTreeAccepted) {
  // A small DTAc over {r, x}: r(x*) with even number of x's.
  Alphabet alphabet;
  alphabet.Intern("r");
  alphabet.Intern("x");
  Dtd d(&alphabet, 0);
  ASSERT_TRUE(d.SetRule("r", "(x x)*").ok());
  Nta aout = CompletedDeterministic(Nta::FromDtd(d));
  const int hash = alphabet.size();
  Nta bout = HashEliminationNta(aout, hash);

  Arena arena;
  TreeBuilder builder(&arena);
  int r = 0;
  int x = 1;
  auto leaf = [&](int label) { return builder.Leaf(label); };
  // r(x #(x)) — gamma = r(x x): accepted.
  Node* t1 = builder.Make(
      r, std::vector<Node*>{
             leaf(x), builder.Make(hash, std::vector<Node*>{leaf(x)})});
  EXPECT_TRUE(bout.Accepts(t1));
  // r(x #(x x)) — gamma = r(x x x): rejected.
  Node* t2 = builder.Make(
      r, std::vector<Node*>{
             leaf(x),
             builder.Make(hash, std::vector<Node*>{leaf(x), leaf(x)})});
  EXPECT_FALSE(bout.Accepts(t2));
  // Nested hashes: r(#(#(x x))) — gamma = r(x x): accepted.
  Node* t3 = builder.Make(
      r, std::vector<Node*>{builder.Make(
             hash, std::vector<Node*>{builder.Make(
                       hash, std::vector<Node*>{leaf(x), leaf(x)})})});
  EXPECT_TRUE(bout.Accepts(t3));
  // r(#()) — gamma = r(): accepted (zero x's is even).
  Node* t4 = builder.Make(
      r, std::vector<Node*>{builder.Make(hash, std::vector<Node*>{})});
  EXPECT_TRUE(bout.Accepts(t4));
}

TEST(RelabTest, RelabFamilyTypechecks) {
  for (int n = 1; n <= 4; ++n) {
    PaperExample ex = RelabFamily(n);
    StatusOr<TypecheckResult> r =
        TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->typechecks) << n;
  }
}

TEST(RelabTest, DetectsArityMismatch) {
  PaperExample ex = RelabFamily(3);
  // Output schema expects only two b's: fails.
  ASSERT_TRUE(ex.dout->SetRule("r", "b b").ok());
  StatusOr<TypecheckResult> r =
      TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  ASSERT_NE(r->counterexample, nullptr);
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
}

TEST(RelabTest, TocTransducerAgainstExampleSchema) {
  // The ToC transducer is del-relab; Theorem 20 must agree with Lemma 14.
  PaperExample ex = MakeBookExample(false);
  StatusOr<TypecheckResult> relab =
      TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(relab.ok()) << relab.status().ToString();
  EXPECT_TRUE(relab->typechecks);
  // And on the failing variant.
  ASSERT_TRUE(ex.dout->SetRule("book", "title (chapter title)+").ok());
  StatusOr<TypecheckResult> relab2 =
      TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(relab2.ok());
  EXPECT_FALSE(relab2->typechecks);
}

TEST(RelabTest, RejectsCopyingTransducers) {
  PaperExample ex = MakeBookExample(true);  // book(q p): two states
  StatusOr<TypecheckResult> r =
      TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RelabTest, MissingInitialRuleFails) {
  PaperExample ex = RelabFamily(2);
  Transducer empty(ex.alphabet.get());
  empty.AddState("q0");
  empty.SetInitial(0);
  StatusOr<TypecheckResult> r = TypecheckDelRelab(empty, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  EXPECT_TRUE(VerifyCounterexample(empty, *ex.din, *ex.dout,
                                   r->counterexample));
}

// Differential tests for Theorem 20. The engine complements d_out's DTA
// before #-elimination on DTD(DFA) outputs and complements HE(d_out) on the
// fly on DTD(NFA) outputs; two independent answers check both:
//  - the eager pipeline: complete d_out's DTA with a sink state, complement
//    it, #-eliminate, intersect with B_in and test emptiness;
//  - the Lemma 14 engine: trac on DTD(DFA), determinize-then-trac on
//    DTD(NFA).

// The eager pipeline, behind the same Definition 5 pre-checks as
// TypecheckDelRelab.
bool EagerReferenceTypechecks(const PaperExample& ex) {
  const Transducer& t = *ex.transducer;
  if (ex.din->LanguageEmpty()) return true;
  const RhsHedge* root = t.rule(t.initial(), ex.din->start());
  if (root == nullptr || root->size() != 1 ||
      (*root)[0].kind != RhsNode::Kind::kLabel) {
    return false;
  }
  Nta ain = Nta::FromDtd(*ex.din);
  const int hash = ain.num_symbols();
  StatusOr<Nta> bin = OutputLanguageNta(t, ain, hash);
  XTC_CHECK(bin.ok());
  Nta bout = HashEliminationNta(
      ComplementedDtac(CompletedDeterministic(Nta::FromDtd(*ex.dout))), hash);
  return IsEmptyLanguage(Intersect(*bin, bout));
}

// Runs the engine against the references and returns its verdict. A
// failing verdict's counterexample, when one is recovered, must satisfy
// Definition 9.
bool ExpectTheorem20Agrees(const PaperExample& ex, bool eager_reference,
                           const std::string& what) {
  StatusOr<TypecheckResult> relab =
      TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout);
  EXPECT_TRUE(relab.ok()) << what << ": " << relab.status().ToString();
  if (!relab.ok()) return false;
  TypecheckOptions topts;
  topts.want_counterexample = false;
  StatusOr<TypecheckResult> trac =
      ex.din->IsDfaDtd() && ex.dout->IsDfaDtd()
          ? TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, topts)
          : TypecheckViaDeterminization(*ex.transducer, *ex.din, *ex.dout,
                                        topts);
  EXPECT_TRUE(trac.ok()) << what << ": " << trac.status().ToString();
  if (trac.ok()) {
    EXPECT_EQ(relab->typechecks, trac->typechecks) << what;
  }
  if (eager_reference) {
    EXPECT_EQ(relab->typechecks, EagerReferenceTypechecks(ex)) << what;
  }
  if (!relab->typechecks && relab->counterexample != nullptr) {
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     relab->counterexample))
        << what << ": "
        << ToTermString(relab->counterexample, *ex.alphabet);
  }
  return relab->typechecks;
}

// Del-relab instances drawn from RandomInstance: seeds whose transducer
// leaves the class are passed over, not counted, so every returned
// instance is inside the fragment. Built once.
const std::vector<PaperExample>& RandomDelRelabInstances() {
  static const std::vector<PaperExample>* instances = [] {
    RandomOptions opts;
    opts.num_symbols = 3;
    opts.num_states = 3;
    opts.max_top_width = 2;
    opts.allow_copying = false;
    auto* out = new std::vector<PaperExample>;
    for (std::uint32_t seed = 0; out->size() < 150; ++seed) {
      PaperExample ex = RandomInstance(seed, opts, false);
      if (IsDelRelab(*ex.transducer)) out->push_back(std::move(ex));
    }
    return out;
  }();
  return *instances;
}

// Property: Theorem 20 agrees with both references on random del-relab
// instances over DTD(DFA) schemas; the parameter indexes the in-fragment
// instances.
class RelabRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(RelabRandomTest, AgreesWithTracEngine) {
  const PaperExample& ex =
      RandomDelRelabInstances()[static_cast<std::size_t>(GetParam())];
  ASSERT_TRUE(ex.dout->IsDfaDtd());
  ExpectTheorem20Agrees(ex, true, "dfa #" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelabRandomTest, ::testing::Range(0, 150));

// A DTD(NFA): each rule is the union of `dtd`'s rule and a random DFA's,
// read as one nondeterministic automaton (two initial states).
Dtd NondeterministicWidening(const Dtd& dtd, std::uint32_t seed) {
  std::mt19937 rng(seed);
  RandomOptions opts;
  opts.num_symbols = dtd.num_symbols();
  Dtd extra = RandomDfaDtd(&rng, dtd.alphabet(), opts);
  Dtd out(dtd.alphabet(), dtd.start());
  for (int s = 0; s < dtd.num_symbols(); ++s) {
    out.SetRuleNfa(s, Nfa::Union(dtd.RuleNfa(s), extra.RuleNfa(s)));
  }
  return out;
}

TEST(RelabDifferentialTest, RandomNfaSchemas) {
  int passing = 0;
  int failing = 0;
  for (int i = 0; i < 100; ++i) {
    PaperExample ex = RandomDelRelabInstances()[static_cast<std::size_t>(i)];
    const std::uint32_t seed = static_cast<std::uint32_t>(i);
    ex.din = std::make_shared<Dtd>(NondeterministicWidening(*ex.din, seed));
    ex.dout = std::make_shared<Dtd>(
        NondeterministicWidening(*ex.dout, seed + 1000));
    ASSERT_FALSE(ex.din->IsDfaDtd());
    const bool ok =
        ExpectTheorem20Agrees(ex, true, "nfa #" + std::to_string(i));
    (ok ? passing : failing) += 1;
  }
  EXPECT_GT(passing, 0);
  EXPECT_GT(failing, 0);
}

TEST(RelabDifferentialTest, NfaSchemaFamilyAndShiftedOutput) {
  for (int n = 2; n <= 8; ++n) {
    // The eager pipeline's completion is exponential in n; it stays
    // affordable up to n = 5.
    const bool eager = n <= 5;
    PaperExample ex = NfaSchemaFamily(n);
    EXPECT_TRUE(
        ExpectTheorem20Agrees(ex, eager, "NfaSchemaFamily " + std::to_string(n)));
    // Shifting d_out's marked position by one fails: a word whose n-th
    // symbol from the end is `a` need not have an `a` one further left.
    std::string shifted = "(a|b)* a";
    for (int i = 0; i < n; ++i) shifted += " (a|b)";
    ASSERT_TRUE(ex.dout->SetRule("r", shifted).ok());
    EXPECT_FALSE(ExpectTheorem20Agrees(
        ex, eager, "shifted NfaSchemaFamily " + std::to_string(n)));
  }
}

// RelabFamily(n) with one child too few in d_out's root rule.
PaperExample RelabFamilyArityMismatch(int n) {
  PaperExample ex = RelabFamily(n);
  std::string fewer = "b";
  for (int i = 2; i < n; ++i) fewer += " b";
  XTC_CHECK(ex.dout->SetRule("r", fewer).ok());
  return ex;
}

// CoprimeCounterFamily(k) whose root demands an even child count.
PaperExample CoprimeCounterEven(int k) {
  PaperExample ex = CoprimeCounterFamily(k);
  XTC_CHECK(ex.dout->SetRule("r", "(x x)*").ok());
  return ex;
}

TEST(RelabDifferentialTest, RelabFamilyArityMismatch) {
  for (int n : {2, 3, 6, 9}) {
    EXPECT_TRUE(ExpectTheorem20Agrees(RelabFamily(n), true,
                                      "RelabFamily " + std::to_string(n)));
    EXPECT_FALSE(
        ExpectTheorem20Agrees(RelabFamilyArityMismatch(n), true,
                              "RelabFamily mismatch " + std::to_string(n)));
  }
}

TEST(RelabDifferentialTest, CoprimeCounterFamily) {
  for (int k = 1; k <= 3; ++k) {
    PaperExample ex = CoprimeCounterFamily(k);
    ASSERT_TRUE(ex.dout->IsDfaDtd());
    const std::string what = "CoprimeCounterFamily " + std::to_string(k);
    EXPECT_TRUE(ExpectTheorem20Agrees(ex, true, what));
    // An even child count fails on odd inputs.
    EXPECT_FALSE(
        ExpectTheorem20Agrees(CoprimeCounterEven(k), true, what + " (even)"));
  }
}

TEST(RelabDifferentialTest, CoprimeCounterStaysPolynomial) {
  // Complementing HE(d_out) by subset construction tracks the deleted
  // node's child count modulo every prime at once, so it needs at least
  // 2 * 3 * 5 * 7 * 11 * 13 = 30030 subsets at k = 6 and trips this cap.
  // Complementing d_out's DTA first (the paper's order) determinizes
  // nothing, and the eager fold of that product has no config cap.
  PaperExample ex = CoprimeCounterFamily(6);
  TypecheckOptions topts;
  topts.want_counterexample = false;
  topts.max_configs = 30030;
  StatusOr<TypecheckResult> r =
      TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, topts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->typechecks);
}

// Each product shape has one engine and no fallback, so `max_configs`
// binds only where a factor is determinized.
TEST(RelabDifferentialTest, ConfigCapBindsOnlyTheDeterminizedShape) {
  TypecheckOptions topts;
  topts.want_counterexample = false;
  // DTD(NFA) output: the lazy engine explores 6 configs on NfaSchemaFamily(8)
  // and gives up under a cap of 5.
  PaperExample nfa = NfaSchemaFamily(8);
  ASSERT_FALSE(nfa.dout->IsDfaDtd());
  topts.max_configs = 5;
  StatusOr<TypecheckResult> capped =
      TypecheckDelRelab(*nfa.transducer, *nfa.din, *nfa.dout, topts);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  topts.max_configs = TypecheckOptions().max_configs;
  StatusOr<TypecheckResult> fits =
      TypecheckDelRelab(*nfa.transducer, *nfa.din, *nfa.dout, topts);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_TRUE(fits->typechecks);
  EXPECT_EQ(fits->stats.nta_states, 6u);
  // DTD(DFA) output: the existential fold still answers under a cap of 1.
  PaperExample dfa = RelabFamily(6);
  ASSERT_TRUE(dfa.dout->IsDfaDtd());
  topts.max_configs = 1;
  StatusOr<TypecheckResult> uncapped =
      TypecheckDelRelab(*dfa.transducer, *dfa.din, *dfa.dout, topts);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
  EXPECT_TRUE(uncapped->typechecks);
  EXPECT_GT(uncapped->stats.nta_states, 1u);
}

// Count pins for Theorem 20: the exact verdict, the product the engine
// explores (nta_states, nta_size) and the budget checkpoints it passes on
// fixed families, three sizes each, plus two failing DTD(DFA) instances
// (the eager fold stops at the first accepting product state). DTD(DFA)
// outputs pin the eager fold's reached product states and its searches'
// expanded horizontal pairs plus edge pairs read, DTD(NFA) outputs the
// lazy engine's configs and horizontal states plus steps. Direct engine
// calls leave TypecheckStats' rule-DFA sizes unset, so the rows pin
// Dtd::RuleDfaStates() of the two schemas instead: the minimal, trimmed
// rule DFAs that ComplementedDfaDtd reads. Any change to those automata or
// to the product's exploration moves these numbers.
struct RelabCountPin {
  const char* name;
  PaperExample (*make)();
  bool typechecks;
  std::uint64_t nta_states;
  std::uint64_t nta_size;
  std::uint64_t budget_checkpoints;
  int din_rule_states;
  int dout_rule_states;
};

TEST(RelabCountPinTest, Theorem20CountsAreExact) {
  const RelabCountPin pins[] = {
      {"RelabFamily(2)", [] { return RelabFamily(2); }, true, 54, 433,
       684, 3, 3},
      {"RelabFamily(6)", [] { return RelabFamily(6); }, true, 86, 1885,
       2680, 7, 7},
      {"RelabFamily(9)", [] { return RelabFamily(9); }, true, 110, 3667,
       5185, 10, 10},
      // NFA rules are not counted by RuleDfaStates().
      {"NfaSchemaFamily(3)", [] { return NfaSchemaFamily(3); }, true, 6, 182,
       183, 0, 0},
      {"NfaSchemaFamily(5)", [] { return NfaSchemaFamily(5); }, true, 6, 826,
       735, 0, 0},
      {"NfaSchemaFamily(8)", [] { return NfaSchemaFamily(8); }, true, 6, 9002,
       7743, 0, 0},
      {"CoprimeCounterFamily(2)", [] { return CoprimeCounterFamily(2); },
       true, 188, 6380, 1991, 3, 6},
      {"CoprimeCounterFamily(3)", [] { return CoprimeCounterFamily(3); },
       true, 380, 24938, 5784, 3, 11},
      {"CoprimeCounterFamily(4)", [] { return CoprimeCounterFamily(4); },
       true, 708, 83826, 14579, 3, 18},
      {"RelabFamily(6) arity mismatch",
       [] { return RelabFamilyArityMismatch(6); }, false, 78, 694, 811, 7, 6},
      {"CoprimeCounterFamily(3) even", [] { return CoprimeCounterEven(3); },
       false, 405, 19765, 4495, 3, 12},
  };
  for (const RelabCountPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    PaperExample ex = pin.make();
    Budget budget;
    TypecheckOptions options;
    options.budget = &budget;
    options.want_counterexample = false;
    StatusOr<TypecheckResult> r =
        TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->typechecks, pin.typechecks);
    EXPECT_EQ(r->stats.nta_states, pin.nta_states);
    EXPECT_EQ(r->stats.nta_size, pin.nta_size);
    EXPECT_EQ(r->stats.budget_checkpoints, pin.budget_checkpoints);
    EXPECT_EQ(ex.din->RuleDfaStates(), pin.din_rule_states);
    EXPECT_EQ(ex.dout->RuleDfaStates(), pin.dout_rule_states);
  }
}

}  // namespace
}  // namespace xtc
