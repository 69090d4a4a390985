// Experiment E1 — Lemma 14's bound O((|din| · |T|^{CK} · |dout|^{CK})^α):
// polynomial in the schema/transducer sizes for fixed C·K, exponential in
// M = C·K. Ablation A2 pairs the lazy engine with the explicit automaton
// construction (reporting the constructed |B|).

#include <benchmark/benchmark.h>

#include "src/base/logging.h"
#include "src/core/explicit_nta.h"
#include "src/core/trac.h"
#include "src/nta/analysis.h"
#include "src/nta/lazy.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

// Sweep |din| at fixed C = K = 1.
void BM_Lemma14_SchemaSize(benchmark::State& state) {
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
  }
  state.counters["|din|"] = static_cast<double>(ex.din->Size());
}
BENCHMARK(BM_Lemma14_SchemaSize)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Sweep the copying width C at K = 1: the exponent at work.
void BM_Lemma14_CopyingWidth(benchmark::State& state) {
  PaperExample ex = WidthFamily(static_cast<int>(state.range(0)), 0);
  TypecheckOptions opts;
  opts.want_counterexample = false;
  std::uint64_t configs = 0;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
    configs = r->stats.configs;
  }
  state.counters["configs"] = static_cast<double>(configs);
}
BENCHMARK(BM_Lemma14_CopyingWidth)->DenseRange(1, 6, 1);

// Sweep the deletion chain depth j (K = 2^j) at C = 2.
void BM_Lemma14_DeletionWidth(benchmark::State& state) {
  PaperExample ex = WidthFamily(2, static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  std::uint64_t configs = 0;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
    configs = r->stats.configs;
  }
  state.counters["K"] = static_cast<double>(uint64_t{1} << state.range(0));
  state.counters["configs"] = static_cast<double>(configs);
}
BENCHMARK(BM_Lemma14_DeletionWidth)->DenseRange(0, 4, 1);

// The (C, deletion depth) grid of WidthFamily: WidthFamily(7,7) is the
// width class of xtcbench's engine_heavy. The exploration counters are
// deterministic, so a row whose time moves with unchanged counters changed
// the cost per explored state, not the search.
void BM_Lemma14_WidthGrid(benchmark::State& state) {
  PaperExample ex = WidthFamily(static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(1)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  TypecheckStats stats;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
    stats = r->stats;
  }
  state.counters["configs"] = static_cast<double>(stats.configs);
  state.counters["evaluations"] = static_cast<double>(stats.evaluations);
  state.counters["product_states"] =
      static_cast<double>(stats.product_states);
}
BENCHMARK(BM_Lemma14_WidthGrid)
    ->ArgsProduct({{3, 5, 7}, {3, 5, 7}})
    ->ArgNames({"c", "k"});

// Ablation A2: the explicit Lemma 14 automaton B vs the lazy engine, with
// the constructed automaton size reported.
void BM_Lemma14_ExplicitConstruction(benchmark::State& state) {
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  std::uint64_t nta_size = 0;
  for (auto _ : state) {
    StatusOr<Nta> b =
        BuildCounterexampleNta(*ex.transducer, *ex.din, *ex.dout, 2000000);
    XTC_CHECK_MSG(b.ok(), b.status().ToString().c_str());
    XTC_CHECK(IsEmptyLanguage(*b));
    nta_size = b->Size();
    benchmark::DoNotOptimize(b);
  }
  state.counters["|B|"] = static_cast<double>(nta_size);
}
BENCHMARK(BM_Lemma14_ExplicitConstruction)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Paired lazy/eager product-emptiness rows on the filter-family schemas,
// shared timing loop, engine chosen by the caller. Verdict agreement is
// asserted once outside the loop; ci/lazy_gate.py enforces the speedup on
// the Inclusion pair's largest parameter.
void RunLemma14Pair(benchmark::State& state,
                    decltype(&LazyEmptiness) engine,
                    const Nta& a, const Nta& b, bool expect_empty) {
  LazyProductSpec spec;
  spec.AddNta(&a);
  spec.AddDeterminized(&b, /*complement=*/true);
  StatusOr<EmptinessOutcome> lazy = LazyEmptiness(spec, nullptr);
  StatusOr<EmptinessOutcome> eager = EagerEmptiness(spec, nullptr);
  XTC_CHECK_MSG(lazy.ok(), lazy.status().ToString().c_str());
  XTC_CHECK_MSG(eager.ok(), eager.status().ToString().c_str());
  XTC_CHECK(lazy->empty == expect_empty && eager->empty == expect_empty);
  for (auto _ : state) {
    StatusOr<EmptinessOutcome> out = engine(spec, nullptr, {});
    XTC_CHECK_MSG(out.ok(), out.status().ToString().c_str());
    benchmark::DoNotOptimize(out->empty);
  }
  state.counters["configs"] = static_cast<double>(lazy->stats.configs);
}

// Gated pair: is L(d_out) ⊆ L(d_in)? It is not (non-empty product) — the
// lazy engine discovers only reachable configurations and exits at the
// first counterexample, while the eager reference determinizes d_in's NTA,
// complements, materializes the product, and decides emptiness afterwards.
void RunLemma14Inclusion(benchmark::State& state,
                         decltype(&LazyEmptiness) engine) {
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  Nta a = Nta::FromDtd(*ex.dout);
  Nta b = Nta::FromDtd(*ex.din);
  RunLemma14Pair(state, engine, a, b, /*expect_empty=*/false);
}
void BM_Lemma14_InclusionLazy(benchmark::State& state) {
  RunLemma14Inclusion(state, LazyEmptiness);
}
void BM_Lemma14_InclusionEager(benchmark::State& state) {
  RunLemma14Inclusion(state, EagerEmptiness);
}
// MinTime: the small rows run tens of µs/op and feed both the perf-smoke
// compare and ci/lazy_gate.py — a longer window than the suite default
// averages out single-vCPU scheduler noise.
BENCHMARK(BM_Lemma14_InclusionLazy)->Arg(8)->Arg(16)->Arg(32)->MinTime(0.25);
BENCHMARK(BM_Lemma14_InclusionEager)->Arg(8)->Arg(16)->Arg(32)->MinTime(0.25);

// Ungated pair: self-inclusion L(d_in) ⊆ L(d_in) — an "empty" verdict, so
// the lazy engine has no early exit and must saturate; its remaining edge
// (reachable-only discovery, no materialized complement or product) is the
// worst-case floor of the optimization.
void RunLemma14SelfInclusion(benchmark::State& state,
                             decltype(&LazyEmptiness) engine) {
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  Nta a = Nta::FromDtd(*ex.din);
  RunLemma14Pair(state, engine, a, a, /*expect_empty=*/true);
}
void BM_Lemma14_SelfInclusionLazy(benchmark::State& state) {
  RunLemma14SelfInclusion(state, LazyEmptiness);
}
void BM_Lemma14_SelfInclusionEager(benchmark::State& state) {
  RunLemma14SelfInclusion(state, EagerEmptiness);
}
BENCHMARK(BM_Lemma14_SelfInclusionLazy)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_Lemma14_SelfInclusionEager)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace xtc
