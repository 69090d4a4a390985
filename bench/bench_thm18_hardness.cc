// Experiment E2 — Theorem 18: typechecking is PSPACE-hard once a slight
// relaxation of the deletion-path-width bound meets copying width two. The
// reduction from DFA intersection emptiness is run end-to-end: instance
// generation plus complete typechecking. Runtime grows steeply with the
// number of automata (the counterexample hides at depth ~log n with 2^m
// copies) — that steepness IS the reproduced result.

#include <benchmark/benchmark.h>

#include <chrono>

#include "src/base/budget.h"
#include "src/base/logging.h"
#include "src/core/explicit_nta.h"
#include "src/core/hardness.h"
#include "src/core/trac.h"
#include "src/nta/lazy.h"
#include "src/nta/nta.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

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

// Pairwise-coprime moduli with residue 1 each: intersection empty iff one
// pair conflicts. We use all-residue-0 (nonempty: the lcm) vs a conflict.
void BM_Thm18_EmptyIntersection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Dfa> dfas;
  dfas.push_back(LengthModDfa(1, 2, 0));
  dfas.push_back(LengthModDfa(1, 2, 1));  // conflicts with the first
  for (int i = 2; i < n; ++i) dfas.push_back(LengthModDfa(1, 2, i % 2));
  XTC_CHECK(DfaIntersectionEmpty(dfas));
  PaperExample ex = MakeTheorem18Instance(dfas, {"x"});
  TypecheckOptions opts;
  opts.want_counterexample = false;
  opts.max_configs = 1u << 24;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
  }
  state.counters["n_dfas"] = n;
}
BENCHMARK(BM_Thm18_EmptyIntersection)->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond);

void BM_Thm18_NonEmptyIntersection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Dfa> dfas;
  // Moduli 2, 3, 3, ... keep the joint witness (the lcm) small; the cost
  // growth comes from the reduction's doubling chain, not the witness.
  dfas.push_back(LengthModDfa(1, 2, 0));
  for (int i = 1; i < n; ++i) dfas.push_back(LengthModDfa(1, 3, 0));
  XTC_CHECK(!DfaIntersectionEmpty(dfas));
  PaperExample ex = MakeTheorem18Instance(dfas, {"x"});
  TypecheckOptions opts;
  opts.want_counterexample = false;
  opts.max_configs = 1u << 24;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(!r->typechecks);
  }
  state.counters["n_dfas"] = n;
}
BENCHMARK(BM_Thm18_NonEmptyIntersection)->DenseRange(2, 3, 1)
    ->Unit(benchmark::kMillisecond);

// Paired lazy/eager product-emptiness rows (gated by ci/lazy_gate.py): the
// schema-inclusion query L(d_in) ⊆ L(d_out) posed at the NTA level on the
// Theorem 18 instances. The lazy engine explores reachable configurations
// only and exits at the first counterexample; the eager reference
// determinizes d_out's NTA, complements, materializes the product, and
// decides emptiness afterwards. Verdict agreement between the engines is
// asserted outside the timing loop.
void RunThm18Inclusion(benchmark::State& state,
                       decltype(&LazyEmptiness) engine) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Dfa> dfas;
  dfas.push_back(LengthModDfa(1, 2, 0));
  for (int i = 1; i < n; ++i) dfas.push_back(LengthModDfa(1, 3, 0));
  PaperExample ex = MakeTheorem18Instance(dfas, {"x"});
  Nta a = Nta::FromDtd(*ex.din);
  Nta b = Nta::FromDtd(*ex.dout);
  LazyProductSpec spec;
  spec.AddNta(&a);
  spec.AddDeterminized(&b, /*complement=*/true);
  StatusOr<EmptinessOutcome> lazy = LazyEmptiness(spec, nullptr);
  StatusOr<EmptinessOutcome> eager = EagerEmptiness(spec, nullptr);
  XTC_CHECK_MSG(lazy.ok(), lazy.status().ToString().c_str());
  XTC_CHECK_MSG(eager.ok(), eager.status().ToString().c_str());
  XTC_CHECK(lazy->empty == eager->empty);
  for (auto _ : state) {
    StatusOr<EmptinessOutcome> out = engine(spec, nullptr, {});
    XTC_CHECK_MSG(out.ok(), out.status().ToString().c_str());
    benchmark::DoNotOptimize(out->empty);
  }
  state.counters["empty"] = lazy->empty ? 1 : 0;
  state.counters["configs"] = static_cast<double>(lazy->stats.configs);
}

void BM_Thm18_InclusionLazy(benchmark::State& state) {
  RunThm18Inclusion(state, LazyEmptiness);
}
void BM_Thm18_InclusionEager(benchmark::State& state) {
  RunThm18Inclusion(state, EagerEmptiness);
}
// MinTime: these rows run ~10 µs/op and feed both the perf-smoke compare
// and ci/lazy_gate.py, so they get a longer window than the suite default
// to average out single-vCPU scheduler noise.
BENCHMARK(BM_Thm18_InclusionLazy)->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond)->MinTime(0.25);
BENCHMARK(BM_Thm18_InclusionEager)->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond)->MinTime(0.25);

// Governor overhead: the same easy instance with and without a (generous)
// Budget attached. The delta is the cost of the checkpoints plus arena
// byte accounting; the acceptance bar for the governance layer is <= 5%.
PaperExample OverheadInstance(int n) {
  std::vector<Dfa> dfas;
  dfas.push_back(LengthModDfa(1, 2, 0));
  dfas.push_back(LengthModDfa(1, 2, 1));
  for (int i = 2; i < n; ++i) dfas.push_back(LengthModDfa(1, 2, i % 2));
  return MakeTheorem18Instance(dfas, {"x"});
}

void BM_Thm18_Ungoverned(benchmark::State& state) {
  PaperExample ex = OverheadInstance(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  opts.max_configs = 1u << 24;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
  }
}
BENCHMARK(BM_Thm18_Ungoverned)->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond);

void BM_Thm18_Governed(benchmark::State& state) {
  PaperExample ex = OverheadInstance(static_cast<int>(state.range(0)));
  std::uint64_t checkpoints = 0;
  for (auto _ : state) {
    // Generous limits: nothing trips, so the loop measures pure checkpoint
    // and byte-accounting cost.
    Budget budget;
    budget.set_deadline(std::chrono::minutes(10));
    budget.set_max_steps(std::uint64_t{1} << 40);
    budget.set_max_bytes(std::uint64_t{1} << 40);
    TypecheckOptions opts;
    opts.want_counterexample = false;
    opts.max_configs = 1u << 24;
    opts.budget = &budget;
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
    checkpoints = budget.checkpoints();
  }
  state.counters["checkpoints"] =
      static_cast<double>(checkpoints);
}
BENCHMARK(BM_Thm18_Governed)->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond);

// The same overhead question for the explicit Lemma 14 construction, whose
// inner odometer polls the budget through the amortized BudgetGate (one
// checkpoint per 1024 ticks) rather than per tick. The Theorem 18 instances
// are intractable for the explicit construction even at n = 2 (the doubling
// chain is exactly what it cannot compress), so the overhead is measured on
// the filter family, where the construction completes in milliseconds.
void BM_Thm18_UngovernedExplicit(benchmark::State& state) {
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    StatusOr<Nta> b = BuildCounterexampleNta(*ex.transducer, *ex.din,
                                             *ex.dout, 1 << 21);
    XTC_CHECK_MSG(b.ok(), b.status().ToString().c_str());
    benchmark::DoNotOptimize(b->num_states());
  }
}
BENCHMARK(BM_Thm18_UngovernedExplicit)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_Thm18_GovernedExplicit(benchmark::State& state) {
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  std::uint64_t checkpoints = 0;
  for (auto _ : state) {
    Budget budget;
    budget.set_deadline(std::chrono::minutes(10));
    budget.set_max_steps(std::uint64_t{1} << 40);
    budget.set_max_bytes(std::uint64_t{1} << 40);
    StatusOr<Nta> b = BuildCounterexampleNta(*ex.transducer, *ex.din,
                                             *ex.dout, 1 << 21, &budget);
    XTC_CHECK_MSG(b.ok(), b.status().ToString().c_str());
    benchmark::DoNotOptimize(b->num_states());
    checkpoints = budget.checkpoints();
  }
  state.counters["checkpoints"] =
      static_cast<double>(checkpoints);
}
BENCHMARK(BM_Thm18_GovernedExplicit)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xtc
