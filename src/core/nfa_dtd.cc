#include "src/core/nfa_dtd.h"

#include <utility>
#include <vector>

#include "src/core/trac.h"

namespace xtc {
namespace {

void CollectTemplateLabels(const RhsNode& node, StateSet* labels) {
  if (node.kind == RhsNode::Kind::kLabel) {
    if (node.label >= 0 && node.label < labels->size_bits()) {
      labels->Set(node.label);
    }
    for (const RhsNode& child : node.children) {
      CollectTemplateLabels(child, labels);
    }
  }
}

}  // namespace

StatusOr<Dtd> DeterminizeDtd(const Dtd& dtd, int max_dfa_states,
                             Budget* budget, const StateSet* needed) {
  Dtd out(dtd.alphabet(), dtd.start());
  for (int s = 0; s < dtd.num_symbols(); ++s) {
    if (!dtd.HasRule(s)) continue;
    if (needed != nullptr && !needed->Test(s)) {
      // The engine will never consult this rule's DFA; keep the NFA form
      // (same language) and skip its subset construction entirely.
      out.SetRuleNfa(s, dtd.RuleNfa(s));
      continue;
    }
    XTC_ASSIGN_OR_RETURN(Dfa dfa, Dfa::FromNfa(dtd.RuleNfa(s), budget));
    if (dfa.num_states() > max_dfa_states) {
      return ResourceExhaustedError(
          "subset construction exceeded the DFA state budget for rule '" +
          dtd.alphabet()->Name(s) + "'");
    }
    out.SetRuleDfa(s, std::move(dfa));
  }
  return out;
}

StateSet ConsultedInputSymbols(const Dtd& din) {
  // Closure of the start symbol under rule-NFA edge labels: the Lemma 14
  // engine only evaluates input nodes reachable from the root of a valid
  // tree, so only these rules' DFAs are ever stepped.
  StateSet seen(din.num_symbols());
  std::vector<int> frontier;
  if (din.start() >= 0 && din.start() < din.num_symbols()) {
    seen.Set(din.start());
    frontier.push_back(din.start());
  }
  while (!frontier.empty()) {
    const int s = frontier.back();
    frontier.pop_back();
    if (!din.HasRule(s)) continue;
    const Nfa& nfa = din.RuleNfa(s);
    for (int st = 0; st < nfa.num_states(); ++st) {
      for (const auto& [sym, to] : nfa.Edges(st)) {
        if (sym >= 0 && sym < din.num_symbols() && !seen.Test(sym)) {
          seen.Set(sym);
          frontier.push_back(sym);
        }
      }
    }
  }
  return seen;
}

StateSet ConsultedOutputSymbols(const Transducer& t, const Dtd& dout) {
  // Output rules are only run at labels the transducer can emit (template
  // labels), plus the output start symbol (the root acceptance check).
  StateSet labels(dout.num_symbols());
  if (dout.start() >= 0 && dout.start() < dout.num_symbols()) {
    labels.Set(dout.start());
  }
  for (int q = 0; q < t.num_states(); ++q) {
    for (int a = 0; a < dout.num_symbols(); ++a) {
      const RhsHedge* rhs = t.rule(q, a);
      if (rhs == nullptr) continue;
      for (const RhsNode& node : *rhs) CollectTemplateLabels(node, &labels);
    }
  }
  return labels;
}

StatusOr<TypecheckResult> TypecheckViaDeterminization(
    const Transducer& t, const Dtd& din, const Dtd& dout,
    const TypecheckOptions& options, int max_dfa_states) {
  // Determinize only the rules the Lemma 14 engine can actually consult —
  // the input symbols reachable from the start symbol and the output
  // symbols the transducer can emit. The remaining rules keep their NFA
  // form (identical language, no subset construction).
  const StateSet needed_in = ConsultedInputSymbols(din);
  const StateSet needed_out = ConsultedOutputSymbols(t, dout);
  XTC_ASSIGN_OR_RETURN(
      Dtd din_det,
      DeterminizeDtd(din, max_dfa_states, options.budget, &needed_in));
  XTC_ASSIGN_OR_RETURN(
      Dtd dout_det,
      DeterminizeDtd(dout, max_dfa_states, options.budget, &needed_out));
  StatusOr<TypecheckResult> result =
      TypecheckTrac(t, din_det, dout_det, options);
  if (result.ok()) {
    result->stats.din_rule_states = din_det.RuleDfaStates();
    result->stats.dout_rule_states = dout_det.RuleDfaStates();
  }
  return result;
}

}  // namespace xtc
