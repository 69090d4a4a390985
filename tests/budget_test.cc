#include "src/base/budget.h"

#include <gtest/gtest.h>

#include <chrono>

#include "src/base/arena.h"
#include "src/core/hardness.h"
#include "src/core/paper_examples.h"
#include "src/core/trac.h"
#include "src/core/typecheck.h"
#include "src/fa/dfa.h"
#include "src/schema/witness.h"
#include "src/tree/tree.h"

namespace xtc {
namespace {

TEST(BudgetTest, UnlimitedBudgetNeverTrips) {
  Budget b;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.Check("test").ok());
  }
  EXPECT_EQ(b.checkpoints(), 1000u);
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.cause(), ExhaustionCause::kNone);
}

TEST(BudgetTest, NullBudgetCheckIsFree) {
  EXPECT_TRUE(BudgetCheck(nullptr, "test").ok());
}

TEST(BudgetTest, StepFuelTripsAndIsSticky) {
  Budget b = Budget::WithMaxSteps(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(b.Check("test").ok()) << i;
  }
  Status s = b.Check("loop_name");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.cause(), ExhaustionCause::kSteps);
  EXPECT_NE(s.message().find("steps"), std::string::npos);
  EXPECT_NE(s.message().find("loop_name"), std::string::npos);
  // Sticky: every later checkpoint repeats the same failure.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.Check("elsewhere").code(), StatusCode::kResourceExhausted);
  }
}

TEST(BudgetTest, InjectionFiresAtExactCheckpoint) {
  Budget b;
  b.set_fail_at_checkpoint(3);
  EXPECT_TRUE(b.Check("a").ok());
  EXPECT_TRUE(b.Check("b").ok());
  Status s = b.Check("c");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.cause(), ExhaustionCause::kInjected);
}

TEST(BudgetTest, ByteCeilingDetectedAtNextCheck) {
  Budget b = Budget::WithMaxBytes(100);
  b.ChargeBytes(64);
  EXPECT_TRUE(b.Check("t").ok());
  b.ChargeBytes(64);  // 128 > 100, reported by the NEXT checkpoint
  Status s = b.Check("t");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.cause(), ExhaustionCause::kBytes);
}

TEST(BudgetTest, ArenaChargesBytesWhileScoped) {
  Budget b;
  Arena arena;
  {
    ArenaBudgetScope scope(&arena, &b);
    arena.Allocate(1024, 8);
    EXPECT_GE(b.bytes_charged(), 1024u);
  }
  // Detached: later allocations are no longer charged.
  std::uint64_t charged = b.bytes_charged();
  arena.Allocate(1024, 8);
  EXPECT_EQ(b.bytes_charged(), charged);
}

TEST(BudgetTest, ExpiredDeadlineTripsWithinClockStride) {
  Budget b = Budget::WithDeadline(std::chrono::milliseconds(0));
  bool tripped = false;
  // The deadline is re-read every kClockStride (32) checkpoints, so an
  // already-expired deadline must fire within the first stride.
  for (int i = 0; i < 64 && !tripped; ++i) {
    tripped = !b.Check("t").ok();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(b.cause(), ExhaustionCause::kDeadline);
}

TEST(BudgetTest, CauseNames) {
  EXPECT_STREQ(ExhaustionCauseName(ExhaustionCause::kNone), "none");
  EXPECT_STREQ(ExhaustionCauseName(ExhaustionCause::kDeadline), "deadline");
  EXPECT_STREQ(ExhaustionCauseName(ExhaustionCause::kSteps), "steps");
  EXPECT_STREQ(ExhaustionCauseName(ExhaustionCause::kBytes), "bytes");
  EXPECT_STREQ(ExhaustionCauseName(ExhaustionCause::kInjected), "injected");
}

TEST(BudgetTest, GovernedDfaOperationsRespectStepFuel) {
  // A small NFA whose determinization needs more than two checkpoints.
  Nfa nfa(2);
  for (int i = 0; i < 6; ++i) nfa.AddState(i == 0, i == 5);
  for (int i = 0; i < 5; ++i) {
    nfa.AddTransition(i, 0, i + 1);
    nfa.AddTransition(i, 1, 0);
  }
  Budget generous = Budget::WithMaxSteps(1u << 20);
  StatusOr<Dfa> det = Dfa::FromNfa(nfa, &generous);
  ASSERT_TRUE(det.ok());
  EXPECT_GT(generous.checkpoints(), 0u);

  Budget tiny = Budget::WithMaxSteps(2);
  StatusOr<Dfa> starved = Dfa::FromNfa(nfa, &tiny);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, GovernedMinimalValidTreeFailsSoftlyOnEmptyLanguage) {
  Alphabet alphabet;
  alphabet.Intern("r");
  Dtd d(&alphabet, 0);
  ASSERT_TRUE(d.SetRule("r", "r").ok());  // recursive: uninhabited
  Arena arena;
  TreeBuilder builder(&arena);
  Budget b;
  StatusOr<Node*> tree = MinimalValidTree(d, 0, &builder, &b);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BudgetTest, TypecheckFillsBudgetTelemetry) {
  // Failing variant: counterexample construction allocates in the governed
  // result arena, so byte telemetry is non-zero too.
  PaperExample ex = MakeBookExample(/*with_summary=*/false);
  ASSERT_TRUE(ex.dout->SetRule("book", "title (chapter title)+").ok());
  TypecheckOptions opts;
  Budget b = Budget::WithMaxSteps(1u << 22);
  opts.budget = &b;
  StatusOr<TypecheckResult> r =
      Typecheck(*ex.transducer, *ex.din, *ex.dout, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->typechecks);
  EXPECT_NE(r->counterexample, nullptr);
  EXPECT_GT(r->stats.budget_checkpoints, 0u);
  EXPECT_GT(r->stats.budget_bytes, 0u);
  EXPECT_GE(r->stats.elapsed_ms, 0.0);
  EXPECT_EQ(r->stats.exhaustion, ExhaustionCause::kNone);
}

TEST(BudgetTest, StarvedExactEngineReturnsResourceExhausted) {
  PaperExample ex = MakeBookExample(/*with_summary=*/true);
  TypecheckOptions opts;
  Budget b = Budget::WithMaxSteps(3);
  opts.budget = &b;
  StatusOr<TypecheckResult> r =
      Typecheck(*ex.transducer, *ex.din, *ex.dout, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// Theorem 18 acceptance: a hard instance (DFA intersection emptiness
// reduction) governed by a 100 ms deadline must come back within ~2x the
// deadline — either exhausted or genuinely finished.
Dfa LengthModDfa(int num_symbols, int modulus, int residue) {
  Dfa d(num_symbols);
  for (int i = 0; i < modulus; ++i) d.AddState(i == residue);
  d.SetInitial(0);
  for (int i = 0; i < modulus; ++i) {
    for (int s = 0; s < num_symbols; ++s) {
      d.SetTransition(i, s, (i + 1) % modulus);
    }
  }
  return d;
}

TEST(BudgetTest, DeadlineGovernsTheorem18HardInstance) {
  std::vector<Dfa> dfas;
  // Large coprime moduli: the counterexample (length lcm = 2*3*5*7*11*13)
  // hides deep in the doubling chain, far beyond a 100 ms budget.
  for (int m : {2, 3, 5, 7, 11, 13}) dfas.push_back(LengthModDfa(1, m, 0));
  PaperExample ex = MakeTheorem18Instance(dfas, {"x"});
  TypecheckOptions opts;
  opts.want_counterexample = false;
  opts.max_configs = 1u << 28;
  Budget b = Budget::WithDeadline(std::chrono::milliseconds(100));
  opts.budget = &b;
  auto start = std::chrono::steady_clock::now();
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  EXPECT_LT(ms, 200.0) << "governed run overshot 2x the deadline";
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(b.cause(), ExhaustionCause::kDeadline);
  }
}

}  // namespace
}  // namespace xtc
