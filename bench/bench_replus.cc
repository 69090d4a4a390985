// Experiment E6 / Ablation A1 — Theorem 37: DTD(RE+) schemas admit PTIME
// typechecking for ARBITRARY transducers. The copying width sweep shows the
// crossover the paper predicts: the Lemma 14 engine is exponential in the
// copying width while the Section 5 grammar engine (a test oracle, off the
// production path) and the Section 6 t_min/t_vast engine (what Typecheck()
// runs) stay polynomial.

#include <benchmark/benchmark.h>

#include <cstddef>

#include "src/base/logging.h"
#include "src/core/minvast.h"
#include "src/core/replus.h"
#include "src/core/trac.h"
#include "src/core/typecheck.h"
#include "src/tree/tree.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

void BM_RePlus_GrammarEngine(benchmark::State& state) {
  PaperExample ex = RePlusCopyFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
  }
  state.counters["copy_width"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RePlus_GrammarEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32);

void BM_RePlus_MinVastEngine(benchmark::State& state) {
  PaperExample ex = RePlusCopyFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckMinVast(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
  }
}
BENCHMARK(BM_RePlus_MinVastEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32);

// The front door: Route() sends every DTD(RE+) instance to min/vast, so this
// row should track BM_RePlus_MinVastEngine, not the Lemma 14 comparison.
void BM_RePlus_Typecheck(benchmark::State& state) {
  PaperExample ex = RePlusCopyFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        Typecheck(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
    benchmark::DoNotOptimize(r);
  }
  state.counters["copy_width"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RePlus_Typecheck)->DenseRange(2, 12, 2);

// xtcbench's replus class at the front door: d_in's `a` -> b1+ ... bm+ is
// deleted and its children copied `copies` times, so d_out's one rule has
// about m·copies rule-DFA states (`dout_rule_states`) and every effect
// table min/vast composes is that wide.
void BM_RePlus_MinVastDeleting(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int copies = static_cast<int>(state.range(1));
  PaperExample ex = RePlusDeletingFamily(m, copies, /*failing=*/false);
  TypecheckOptions opts;
  opts.want_counterexample = false;
  int dout_states = 0;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        Typecheck(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
    XTC_CHECK(r->stats.route.engine == RouteEngine::kMinVast);
    dout_states = r->stats.dout_rule_states;
    benchmark::DoNotOptimize(r);
  }
  state.counters["dout_rule_states"] = dout_states;
}
BENCHMARK(BM_RePlus_MinVastDeleting)->Args({4, 2})->Args({11, 8})
    ->Args({16, 16});

// Witness size on the chain whose only t_min/t_vast counterexample is
// t_vast ((4^{d+1}-1)/3 nodes unshrunk): Typecheck() shrinks it on the DAG
// before materializing. `witness_nodes` should equal the Lemma 14 engine's
// 2^{d+1}.
void BM_RePlus_VastChainWitness(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  PaperExample ex = RePlusVastChainFamily(d);
  std::size_t nodes = 0;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r = Typecheck(*ex.transducer, *ex.din, *ex.dout);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(!r->typechecks && r->counterexample != nullptr);
    nodes = NodeCount(r->counterexample);
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["depth"] = d;
  state.counters["witness_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_RePlus_VastChainWitness)->DenseRange(4, 10, 2);

// Ablation: the same instances through the Lemma 14 engine, which pays
// |dout|^{C·K}. The sweep stops early — that is the point.
void BM_RePlus_Lemma14Comparison(benchmark::State& state) {
  PaperExample ex = RePlusCopyFamily(static_cast<int>(state.range(0)));
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
BENCHMARK(BM_RePlus_Lemma14Comparison)->Arg(1)->Arg(2)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

// Schema-size scaling at fixed copying width.
void BM_RePlus_SchemaDepth(benchmark::State& state) {
  // A chain DTD(RE+) of depth n with a 3-copying transducer.
  const int n = static_cast<int>(state.range(0));
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  for (int i = 0; i <= n; ++i) ex.alphabet->Intern("s" + std::to_string(i));
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), 0);
  for (int i = 0; i < n; ++i) {
    XTC_CHECK(ex.din
                  ->SetRule("s" + std::to_string(i),
                            "s" + std::to_string(i + 1) + "+")
                  .ok());
  }
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(0);
  XTC_CHECK(
      ex.transducer->SetRuleFromString("q0", "s0", "s0(q q q)").ok());
  for (int i = 1; i <= n; ++i) {
    XTC_CHECK(ex.transducer
                  ->SetRuleFromString("q", "s" + std::to_string(i),
                                      "s" + std::to_string(i) + "(q q q)")
                  .ok());
  }
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), 0);
  for (int i = 0; i < n; ++i) {
    XTC_CHECK(ex.dout
                  ->SetRule("s" + std::to_string(i),
                            "s" + std::to_string(i + 1) + "+")
                  .ok());
  }
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
  }
}
BENCHMARK(BM_RePlus_SchemaDepth)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace xtc
