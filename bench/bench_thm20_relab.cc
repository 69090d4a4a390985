// Experiment E3 — Theorem 20: TC[T_del-relab, DTAc(DFA)] in PTIME. Scaling
// of the full pipeline (Lemma 19 output-language automaton, #-elimination,
// emptiness of B_in against B_out: the eager fold for DTD(DFA) outputs, the
// lazy on-the-fly complement for DTD(NFA) outputs) with schema size, with
// the product size reported, next to the front door on the same instances.

#include <benchmark/benchmark.h>

#include <string>

#include "src/base/logging.h"
#include "src/core/relab.h"
#include "src/core/trac.h"
#include "src/core/typecheck.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

void BM_Thm20_RelabScaling(benchmark::State& state) {
  PaperExample ex = RelabFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  std::uint64_t product_size = 0;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
    product_size = r->stats.nta_size;
  }
  state.counters["explored"] = static_cast<double>(product_size);
}
BENCHMARK(BM_Thm20_RelabScaling)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(9)
    ->Arg(13)->Arg(16)->Unit(benchmark::kMillisecond);

// The failing counterpart: d_out's root rule has one child too few, so
// every input fails and the fold stops at the first accepting product
// state.
void BM_Thm20_RelabArityMismatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PaperExample ex = RelabFamily(n);
  std::string fewer = "b";
  for (int i = 2; i < n; ++i) fewer += " b";
  XTC_CHECK(ex.dout->SetRule("r", fewer).ok());
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(!r->typechecks);
  }
}
BENCHMARK(BM_Thm20_RelabArityMismatch)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Arg(9)->Arg(13)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Thm20_FilterViaTreeAutomata(benchmark::State& state) {
  // The ToC-style deleting relabeling over the section hierarchy.
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
  }
}
BENCHMARK(BM_Thm20_FilterViaTreeAutomata)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Comparison series: the same instances through the Lemma 14 engine (both
// are PTIME here; relative constants are machine-local).
void BM_Thm20_SameInstancesViaLemma14(benchmark::State& state) {
  PaperExample ex = RelabFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
  }
}
BENCHMARK(BM_Thm20_SameInstancesViaLemma14)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Arg(9)->Arg(13)->Arg(16)->Unit(benchmark::kMillisecond);

// DTD(NFA) schemas: (a|b)* a (a|b)^{n-1} on both sides, so determinizing a
// content model needs 2^n states. Theorem 20 only pays the subsets of
// HE(d_out) the product reaches.
void BM_Thm20_NfaSchemaFamily(benchmark::State& state) {
  PaperExample ex = NfaSchemaFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  std::uint64_t configs = 0;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
    configs = r->stats.nta_states;
  }
  state.counters["configs"] = static_cast<double>(configs);
}
BENCHMARK(BM_Thm20_NfaSchemaFamily)->DenseRange(2, 14)
    ->Unit(benchmark::kMillisecond);

// DTD(DFA) output schema whose rules count modulo the first k primes:
// complementing HE(d_out) by subset construction would mint ∏ p_i
// configurations; complementing d_out's DTA first keeps the product
// polynomial in k (`configs` counts the product states the eager fold
// reaches).
void BM_Thm20_CoprimeCounterFamily(benchmark::State& state) {
  PaperExample ex = CoprimeCounterFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  std::uint64_t configs = 0;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
    configs = r->stats.nta_states;
  }
  state.counters["configs"] = static_cast<double>(configs);
}
BENCHMARK(BM_Thm20_CoprimeCounterFamily)->DenseRange(1, 6)
    ->Unit(benchmark::kMillisecond);

// The same instances through the front door, which determinizes both
// schemas and runs trac. The sweep stops at n = 10, which already takes
// seconds and most of a gigabyte: from n = 11 on, trac runs into its 2^22
// config cap and returns RESOURCE_EXHAUSTED.
void BM_Thm20_NfaSchemaFamilyFrontDoor(benchmark::State& state) {
  PaperExample ex = NfaSchemaFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        Typecheck(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
  }
}
BENCHMARK(BM_Thm20_NfaSchemaFamilyFrontDoor)->DenseRange(2, 10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xtc
