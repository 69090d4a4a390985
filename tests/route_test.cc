// Table 1 dispatch: one case per cell. Route() is pure, so each case first
// asks it for the cell and engine without running anything, then checks that
// Typecheck() stamps the same route into its stats.

#include <gtest/gtest.h>

#include <ostream>

#include "src/core/nfa_dtd.h"
#include "src/core/trac.h"
#include "src/core/typecheck.h"
#include "src/td/compile_selectors.h"
#include "src/workload/families.h"

namespace xtc {

void PrintTo(const TypecheckRoute& route, std::ostream* os) {
  *os << "{cell " << static_cast<int>(route.cell) << ", engine "
      << static_cast<int>(route.engine) << "}";
}

namespace {

constexpr TypecheckRoute kMinVast{Table1Cell::kRePlus, RouteEngine::kMinVast};
constexpr TypecheckRoute kTrac{Table1Cell::kDfaBoundedDpw, RouteEngine::kTrac};
constexpr TypecheckRoute kNfaTrac{Table1Cell::kNfa, RouteEngine::kTrac};

void ExpectTypecheckStamps(const PaperExample& ex, TypecheckRoute route) {
  StatusOr<TypecheckResult> r = Typecheck(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->typechecks);
  EXPECT_EQ(r->stats.route, route);
}

// FilterFamily's DTD(DFA) schemas under a transducer that copies while it
// deletes recursively: unbounded deletion path width.
PaperExample CopyingFilter() {
  PaperExample ex = FilterFamily(3);
  EXPECT_TRUE(ex.transducer->SetRuleFromString("q", "sec0", "q q").ok());
  return ex;
}

TEST(RouteTest, RePlusSchemasGoToMinVastWhateverTheWidths) {
  // Bounded deletion path width does not matter: RE+ comes first.
  for (const PaperExample& ex :
       {RePlusCopyFamily(4), RePlusCopyFamily(12), RelabFamily(6)}) {
    EXPECT_EQ(Route(*ex.transducer, *ex.din, *ex.dout), kMinVast);
    ExpectTypecheckStamps(ex, kMinVast);
  }
}

TEST(RouteTest, XPathChainRoutesAfterSelectorCompilation) {
  PaperExample ex = XPathChainFamily(6);
  StatusOr<Transducer> compiled = CompileSelectors(*ex.transducer);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(Route(*compiled, *ex.din, *ex.dout), kMinVast);
  ExpectTypecheckStamps(ex, kMinVast);
}

TEST(RouteTest, DfaSchemasWithBoundedDpwGoToTrac) {
  for (const PaperExample& ex : {WidthFamily(3, 3), FilterFamily(4)}) {
    ASSERT_FALSE(ex.din->IsRePlusDtd() && ex.dout->IsRePlusDtd());
    EXPECT_EQ(Route(*ex.transducer, *ex.din, *ex.dout), kTrac);
    ExpectTypecheckStamps(ex, kTrac);
  }
}

TEST(RouteTest, NfaSchemasAreDeterminizedThenRoutedAgain) {
  PaperExample ex = NfaSchemaFamily(4);
  ASSERT_FALSE(ex.din->IsDfaDtd());
  EXPECT_EQ(Route(*ex.transducer, *ex.din, *ex.dout), kNfaTrac);
  ExpectTypecheckStamps(ex, kNfaTrac);

  // Cached determinizations take the same route.
  StatusOr<Dtd> din_det = DeterminizeDtd(*ex.din, 1 << 16);
  StatusOr<Dtd> dout_det = DeterminizeDtd(*ex.dout, 1 << 16);
  ASSERT_TRUE(din_det.ok() && dout_det.ok());
  TypecheckOptions options;
  options.din_determinized = &*din_det;
  options.dout_determinized = &*dout_det;
  EXPECT_EQ(Route(*ex.transducer, *ex.din, *ex.dout, options), kNfaTrac);
  StatusOr<TypecheckResult> r =
      Typecheck(*ex.transducer, *ex.din, *ex.dout, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->typechecks);
  EXPECT_EQ(r->stats.route, kNfaTrac);
}

// Lemma 14's |d_in| and |d_out|: the states of the (minimal, trimmed) rule
// DFAs on each side of the engine that ran. WidthFamily's d_in has two
// rules a? of two states each; its d_out rules b* shrink to one state each.
TEST(RouteTest, TypecheckStampsTheRuleDfaSizesTheEngineRan) {
  PaperExample width = WidthFamily(7, 7);
  StatusOr<TypecheckResult> r =
      Typecheck(*width.transducer, *width.din, *width.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.din_rule_states, 4);
  EXPECT_EQ(r->stats.dout_rule_states, 2);
  // Direct engine calls leave them unset.
  StatusOr<TypecheckResult> direct =
      TypecheckTrac(*width.transducer, *width.din, *width.dout);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->stats.din_rule_states, 0);
  EXPECT_EQ(direct->stats.dout_rule_states, 0);

  // min/vast runs no rule DFA of d_in.
  PaperExample replus = RePlusCopyFamily(4);
  r = Typecheck(*replus.transducer, *replus.din, *replus.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.din_rule_states, 0);
  EXPECT_GT(r->stats.dout_rule_states, 0);

  // DTD(NFA): the sizes are those of the determinized schemas, whether
  // Typecheck() determinizes or the caller hands in cached ones. The input
  // rule "4th letter from the end" needs 2^4 states.
  PaperExample nfa = NfaSchemaFamily(4);
  r = Typecheck(*nfa.transducer, *nfa.din, *nfa.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.din_rule_states, 16);
  StatusOr<Dtd> din_det = DeterminizeDtd(*nfa.din, 1 << 16);
  StatusOr<Dtd> dout_det = DeterminizeDtd(*nfa.dout, 1 << 16);
  ASSERT_TRUE(din_det.ok() && dout_det.ok());
  TypecheckOptions options;
  options.din_determinized = &*din_det;
  options.dout_determinized = &*dout_det;
  StatusOr<TypecheckResult> cached =
      Typecheck(*nfa.transducer, *nfa.din, *nfa.dout, options);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(cached->stats.din_rule_states, r->stats.din_rule_states);
  EXPECT_EQ(cached->stats.dout_rule_states, r->stats.dout_rule_states);
}

TEST(RouteTest, UnboundedDpwOverNonRePlusSchemasHasNoEngine) {
  constexpr TypecheckRoute kNone{Table1Cell::kIntractable,
                                 RouteEngine::kUnimplemented};
  PaperExample ex = CopyingFilter();
  EXPECT_EQ(Route(*ex.transducer, *ex.din, *ex.dout), kNone);
  StatusOr<TypecheckResult> r = Typecheck(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);

  // Determinizing a DTD(NFA) does not help an unbounded transducer, so it
  // is not attempted.
  PaperExample nfa = NfaSchemaFamily(3);
  ASSERT_TRUE(nfa.transducer->SetRuleFromString("q", "a", "q q").ok());
  EXPECT_EQ(Route(*nfa.transducer, *nfa.din, *nfa.dout),
            (TypecheckRoute{Table1Cell::kNfa, RouteEngine::kUnimplemented}));
}

TEST(RouteTest, CallerWidthsAreTrustedNotRecomputed) {
  PaperExample ex = WidthFamily(2, 2);
  WidthAnalysis unbounded;
  unbounded.dpw_bounded = false;
  TypecheckOptions options;
  options.widths = &unbounded;
  EXPECT_EQ(Route(*ex.transducer, *ex.din, *ex.dout, options),
            (TypecheckRoute{Table1Cell::kIntractable,
                            RouteEngine::kUnimplemented}));
}


// Count pins for DTD(NFA) via determinization: Typecheck() determinizes
// NfaSchemaFamily's schemas and routes them to trac. Each row pins the
// verdict, the fixpoint's exploration, the rule-DFA sizes of the
// determinized schemas and the budget checkpoints of the whole call.
struct DeterminizationCountPin {
  int n;
  bool typechecks;
  std::uint64_t configs;
  std::uint64_t evaluations;
  std::uint64_t product_states;
  int din_rule_states;
  int dout_rule_states;
  std::uint64_t budget_checkpoints;
};

TEST(DeterminizationCountPinTest, NfaSchemaFamilyCountsAreExact) {
  const DeterminizationCountPin pins[] = {
      {3, true, 147, 151, 23, 8, 8, 192},
      {5, true, 2115, 2121, 95, 32, 32, 2282},
      {8, true, 131587, 131596, 767, 256, 256, 132877},
  };
  for (const DeterminizationCountPin& pin : pins) {
    SCOPED_TRACE(pin.n);
    PaperExample ex = NfaSchemaFamily(pin.n);
    Budget budget;
    TypecheckOptions options;
    options.budget = &budget;
    StatusOr<TypecheckResult> r =
        Typecheck(*ex.transducer, *ex.din, *ex.dout, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.route, kNfaTrac);
    EXPECT_EQ(r->typechecks, pin.typechecks);
    EXPECT_EQ(r->stats.configs, pin.configs);
    EXPECT_EQ(r->stats.evaluations, pin.evaluations);
    EXPECT_EQ(r->stats.product_states, pin.product_states);
    EXPECT_EQ(r->stats.din_rule_states, pin.din_rule_states);
    EXPECT_EQ(r->stats.dout_rule_states, pin.dout_rule_states);
    EXPECT_EQ(r->stats.budget_checkpoints, pin.budget_checkpoints);
  }
}

}  // namespace
}  // namespace xtc
