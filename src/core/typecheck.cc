#include "src/core/typecheck.h"

#include <optional>

#include "src/base/budget.h"
#include "src/core/minvast.h"
#include "src/core/nfa_dtd.h"
#include "src/core/trac.h"
#include "src/td/classes.h"
#include "src/td/compile_selectors.h"
#include "src/td/exec.h"
#include "src/td/widths.h"

namespace xtc {
namespace {

// Stamps the rule-DFA sizes of the schemas an engine ran on.
StatusOr<TypecheckResult> WithRuleStates(StatusOr<TypecheckResult> result,
                                         const Dtd* din, const Dtd& dout) {
  if (result.ok()) {
    result->stats.din_rule_states = din != nullptr ? din->RuleDfaStates() : 0;
    result->stats.dout_rule_states = dout.RuleDfaStates();
  }
  return result;
}

// Runs the engine `route` names (selectors already compiled away).
StatusOr<TypecheckResult> TypecheckExact(const Transducer& t, const Dtd& din,
                                         const Dtd& dout,
                                         const TypecheckOptions& options,
                                         TypecheckRoute route) {
  if (route.engine == RouteEngine::kMinVast) {
    // min/vast reads d_in's RE+ factors and d_out's rule DFAs.
    return WithRuleStates(TypecheckMinVast(t, din, dout, options), nullptr,
                          dout);
  }
  if (route.engine != RouteEngine::kTrac) {
    return UnimplementedError(
        "instance is outside the paper's tractable fragments (unbounded "
        "deletion path width with non-RE+ schemas is PSPACE/coNP-hard; "
        "Theorems 18 and 28) — use TypecheckBruteForce for bounded "
        "checking");
  }
  if (route.cell != Table1Cell::kNfa) {
    return WithRuleStates(TypecheckTrac(t, din, dout, options), &din, dout);
  }
  // DTD(NFA) schemas: swap in a cached determinization when the caller has
  // one, otherwise determinize here (the PSPACE price).
  const Dtd* ein = &din;
  const Dtd* eout = &dout;
  if (!din.IsDfaDtd() && options.din_determinized != nullptr) {
    ein = options.din_determinized;
  }
  if (!dout.IsDfaDtd() && options.dout_determinized != nullptr) {
    eout = options.dout_determinized;
  }
  if (!ein->IsDfaDtd() || !eout->IsDfaDtd()) {
    return TypecheckViaDeterminization(t, *ein, *eout, options);
  }
  return WithRuleStates(TypecheckTrac(t, *ein, *eout, options), ein, *eout);
}

}  // namespace

TypecheckRoute Route(const Transducer& t, const Dtd& din, const Dtd& dout,
                     const TypecheckOptions& options) {
  // min/vast reads only the RE+ rules of d_in and the complete rule DFAs of
  // d_out, so this cell needs neither widths nor determinization.
  if (din.IsRePlusDtd() && dout.IsRePlusDtd()) {
    return {Table1Cell::kRePlus, RouteEngine::kMinVast};
  }
  const bool dpw_bounded = options.widths != nullptr
                               ? options.widths->dpw_bounded
                               : AnalyzeWidths(t).dpw_bounded;
  const Table1Cell cell = !din.IsDfaDtd() || !dout.IsDfaDtd()
                              ? Table1Cell::kNfa
                          : dpw_bounded ? Table1Cell::kDfaBoundedDpw
                                        : Table1Cell::kIntractable;
  return {cell, dpw_bounded ? RouteEngine::kTrac : RouteEngine::kUnimplemented};
}

bool VerifyCounterexample(const Transducer& t, const Dtd& din, const Dtd& dout,
                          const Node* tree) {
  if (tree == nullptr || !din.Valid(tree)) return false;
  Arena scratch;
  TreeBuilder builder(&scratch);
  Node* output = Apply(t, tree, &builder);
  return output == nullptr || !dout.Valid(output);
}

StatusOr<TypecheckResult> Typecheck(const Transducer& t, const Dtd& din,
                                    const Dtd& dout,
                                    const TypecheckOptions& options) {
  WallTimer timer;
  // Selectors are compiled away first (Theorems 23/29).
  std::optional<Transducer> compiled;
  const Transducer* effective = &t;
  TypecheckOptions effective_options = options;
  if (t.HasSelectors()) {
    StatusOr<Transducer> c = CompileSelectors(t);
    if (!c.ok()) return c.status();
    compiled = *std::move(c);
    effective = &*compiled;
    // A caller-supplied width analysis describes the caller's selector-free
    // transducer, not the one compiled here.
    effective_options.widths = nullptr;
  }

  const TypecheckRoute route =
      Route(*effective, din, dout, effective_options);
  StatusOr<TypecheckResult> result =
      TypecheckExact(*effective, din, dout, effective_options, route);
  if (result.ok()) {
    result->stats.route = route;
    // Engines stamp governed runs from their Budget; the front door covers
    // whatever is left (including selector compilation) so service latency
    // telemetry is never zero.
    if (result->stats.elapsed_ms == 0) {
      result->stats.elapsed_ms = timer.elapsed_ms();
    }
  }
  return result;
}

}  // namespace xtc
