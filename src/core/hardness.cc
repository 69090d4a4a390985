#include "src/core/hardness.h"

#include <algorithm>
#include <deque>
#include <set>

#include "src/base/logging.h"
#include "src/xpath/eval.h"

namespace xtc {
namespace {

void MustSetRule(Transducer* t, std::string_view state,
                 std::string_view symbol, std::string_view rhs) {
  Status s = t->SetRuleFromString(state, symbol, rhs);
  XTC_CHECK_MSG(s.ok(), s.ToString().c_str());
}

// DFA simulating A_1..A_n on #-separated (or terminator-separated) segments
// of a string. States: (i, x) for segment i in state x of A_i's complete
// view; a "done" state after all n segments; an accepting "bad" sink once
// some A_i rejected or `ok_symbol` was read. Which end states accept is
// configured by the caller via flags. Every A_i must have an initial state.
Dfa SegmentedSimulationDfa(const std::vector<Dfa>& dfas,
                           const std::vector<int>& delta_symbols,
                           int separator_symbol, int ok_symbol,
                           int num_symbols, bool separator_before_segments,
                           bool partial_final) {
  const int n = static_cast<int>(dfas.size());
  Dfa out(num_symbols);
  // Layout: per i, a block of dfas[i].num_complete_states() states; then
  // done, then bad.
  std::vector<int> offset(static_cast<std::size_t>(n));
  int total = 0;
  for (int i = 0; i < n; ++i) {
    const Dfa& a = dfas[static_cast<std::size_t>(i)];
    XTC_CHECK(a.initial() != Dfa::kDead);
    offset[static_cast<std::size_t>(i)] = total;
    total += a.num_complete_states();
  }
  int done = total;
  int bad = total + 1;
  for (int s = 0; s < total; ++s) out.AddState(partial_final);
  out.AddState(false);  // done
  out.AddState(true);   // bad
  for (int i = 0; i < n; ++i) {
    const Dfa& a = dfas[static_cast<std::size_t>(i)];
    for (int x = 0; x < a.num_complete_states(); ++x) {
      int id = offset[static_cast<std::size_t>(i)] + x;
      if (!partial_final) {
        // Theorem 18 variant: the string can end inside the last segment;
        // accept iff the segment is rejected by A_i.
        out.SetFinal(id, !a.final(x));
      }
      for (std::size_t di = 0; di < delta_symbols.size(); ++di) {
        out.SetTransition(id, delta_symbols[di],
                          offset[static_cast<std::size_t>(i)] +
                              a.StepComplete(x, static_cast<int>(di)));
      }
      // Separator: segment ends here.
      int sep_target;
      if (!a.final(x)) {
        sep_target = bad;
      } else {
        sep_target = i + 1 == n
                         ? done
                         : offset[static_cast<std::size_t>(i) + 1] +
                               dfas[static_cast<std::size_t>(i) + 1].initial();
      }
      out.SetTransition(id, separator_symbol, sep_target);
      if (ok_symbol >= 0) out.SetTransition(id, ok_symbol, bad);
    }
  }
  // done: further content is ignored; ok still bails out to bad.
  for (std::size_t di = 0; di < delta_symbols.size(); ++di) {
    out.SetTransition(done, delta_symbols[di], done);
  }
  out.SetTransition(done, separator_symbol, done);
  if (ok_symbol >= 0) out.SetTransition(done, ok_symbol, bad);
  // bad: accepting sink.
  for (std::size_t di = 0; di < delta_symbols.size(); ++di) {
    out.SetTransition(bad, delta_symbols[di], bad);
  }
  out.SetTransition(bad, separator_symbol, bad);
  if (ok_symbol >= 0) out.SetTransition(bad, ok_symbol, bad);

  out.SetInitial(offset[0] + dfas[0].initial());
  (void)separator_before_segments;
  return out;
}

}  // namespace

PaperExample MakeTheorem18Instance(
    const std::vector<Dfa>& dfas, const std::vector<std::string>& delta_names) {
  XTC_CHECK(!dfas.empty());
  const int n = static_cast<int>(dfas.size());
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  std::vector<int> delta;
  for (const std::string& name : delta_names) {
    delta.push_back(ex.alphabet->Intern(name));
  }
  int hash = ex.alphabet->Intern("#");
  int r = ex.alphabet->Intern("r");
  int ok = ex.alphabet->Intern("ok");
  const int num_symbols = ex.alphabet->size();

  // d_in: r → #; # → # | Δ*.
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), r);
  ex.din->SetRule(r, Regex::Sym(hash));
  std::vector<RegexPtr> delta_alts;
  for (int d : delta) delta_alts.push_back(Regex::Sym(d));
  ex.din->SetRule(hash, Regex::Alt({Regex::Sym(hash),
                                    Regex::Star(Regex::Alt(delta_alts))}));

  // Transducer: doubling chain of depth m with 2^m >= n.
  int m = 2;
  while ((1 << m) < n) ++m;
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  for (int i = 1; i <= m; ++i) {
    ex.transducer->AddState("q" + std::to_string(i));
  }
  ex.transducer->SetInitial(q0);
  MustSetRule(ex.transducer.get(), "q0", "r", "r(q1 # q1)");
  for (int i = 1; i < m; ++i) {
    MustSetRule(ex.transducer.get(), "q" + std::to_string(i), "#",
                "q" + std::to_string(i + 1) + " # q" + std::to_string(i + 1));
    for (const std::string& a : delta_names) {
      MustSetRule(ex.transducer.get(), "q" + std::to_string(i), a, "ok");
    }
  }
  MustSetRule(ex.transducer.get(), "q" + std::to_string(m), "#", "ok");
  for (const std::string& a : delta_names) {
    MustSetRule(ex.transducer.get(), "q" + std::to_string(m), a, a);
  }

  // d_out: r's children simulate A_1..A_n on the #-separated segments.
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), r);
  ex.dout->SetRuleDfa(
      r, SegmentedSimulationDfa(dfas, delta, hash, ok, num_symbols,
                                /*separator_before_segments=*/false,
                                /*partial_final=*/false));
  return ex;
}

std::vector<int> FirstPrimes(int n) {
  std::vector<int> primes;
  int candidate = 2;
  while (static_cast<int>(primes.size()) < n) {
    bool prime = true;
    for (int p : primes) {
      if (p * p > candidate) break;
      if (candidate % p == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes.push_back(candidate);
    ++candidate;
  }
  return primes;
}

std::vector<Dfa> Make3CnfUnaryDfas(const std::vector<CnfClause>& clauses,
                                   int num_vars) {
  std::vector<int> primes = FirstPrimes(num_vars);
  std::vector<Dfa> out;
  for (const CnfClause& clause : clauses) {
    // Cycle of length p_a * p_b * p_c; r is accepted iff some literal is
    // satisfied under "x_i true iff r ≡ 0 (mod p_i)".
    long long modulus = 1;
    for (const CnfLiteral& lit : clause) {
      XTC_CHECK(lit.var >= 0 && lit.var < num_vars);
      modulus *= primes[static_cast<std::size_t>(lit.var)];
    }
    Dfa d(1);
    for (long long s = 0; s < modulus; ++s) {
      bool sat = false;
      for (const CnfLiteral& lit : clause) {
        int p = primes[static_cast<std::size_t>(lit.var)];
        bool is_true = (s % p) == 0;
        if (is_true == lit.positive) sat = true;
      }
      d.AddState(sat);
    }
    for (long long s = 0; s < modulus; ++s) {
      d.SetTransition(static_cast<int>(s), 0,
                      static_cast<int>((s + 1) % modulus));
    }
    d.SetInitial(0);
    out.push_back(std::move(d));
  }
  return out;
}

PaperExample MakeTheorem28Instance(const std::vector<Dfa>& unary_dfas) {
  XTC_CHECK(!unary_dfas.empty());
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  int a = ex.alphabet->Intern("a");
  int r = ex.alphabet->Intern("r");
  int hash = ex.alphabet->Intern("#");
  int dollar = ex.alphabet->Intern("$");
  const int num_symbols = ex.alphabet->size();

  // d_in: r → #; # → # | $; $ → a*.
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), r);
  ex.din->SetRule(r, Regex::Sym(hash));
  ex.din->SetRule(hash, Regex::Alt({Regex::Sym(hash), Regex::Sym(dollar)}));
  ex.din->SetRule(dollar, Regex::Star(Regex::Sym(a)));

  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q1");
  ex.transducer->AddState("q2");
  ex.transducer->AddState("q3");
  ex.transducer->SetInitial(q0);
  MustSetRule(ex.transducer.get(), "q0", "r", "r(<q1, .//#>)");
  MustSetRule(ex.transducer.get(), "q1", "#", "<q2, .//$>");
  MustSetRule(ex.transducer.get(), "q2", "$", "<q3, .//a> $");
  MustSetRule(ex.transducer.get(), "q3", "a", "a");

  // d_out: r's children are k copies of a^m $; simulate A_i on copy i,
  // accept if some copy is rejected or there are fewer than n copies.
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), r);
  ex.dout->SetRuleDfa(
      r, SegmentedSimulationDfa(unary_dfas, {a}, dollar, /*ok_symbol=*/-1,
                                num_symbols,
                                /*separator_before_segments=*/false,
                                /*partial_final=*/true));
  return ex;
}

namespace {

// Appends the target step after every selecting literal; `descendant_axis`
// is the axis immediately above the current subexpression.
XPathExprPtr AppendTarget(const XPathExprPtr& e, int target,
                          bool descendant_axis) {
  switch (e->kind) {
    case XPathExpr::Kind::kDisj:
      return XPathExpr::Disj(AppendTarget(e->left, target, descendant_axis),
                             AppendTarget(e->right, target, descendant_axis));
    case XPathExpr::Kind::kChild:
      return XPathExpr::Child(e->left,
                              AppendTarget(e->right, target, false));
    case XPathExpr::Kind::kDescendant:
      return XPathExpr::Descendant(e->left,
                                   AppendTarget(e->right, target, true));
    case XPathExpr::Kind::kFilter:
    case XPathExpr::Kind::kTest:
    case XPathExpr::Kind::kWildcard: {
      XPathExprPtr step = XPathExpr::Test(target);
      return descendant_axis ? XPathExpr::Descendant(e, step)
                             : XPathExpr::Child(e, step);
    }
  }
  XTC_CHECK_MSG(false, "unreachable XPath kind");
  return e;
}

}  // namespace

XPathPatternPtr Lemma26Pattern(const XPathPatternPtr& pattern, int target) {
  return XPathPattern::Make(
      pattern->descendant,
      AppendTarget(pattern->body, target, pattern->descendant));
}

PaperExample MakeTheorem28aInstance(std::shared_ptr<Alphabet> alphabet,
                                    const Dtd& d, const XPathPatternPtr& p1,
                                    const XPathPatternPtr& p2) {
  PaperExample ex;
  ex.alphabet = std::move(alphabet);
  XTC_CHECK(ex.alphabet.get() == d.alphabet());
  int r = *ex.alphabet->Find("r");
  int x1 = *ex.alphabet->Find("x1");
  int x2 = *ex.alphabet->Find("x2");

  // d' (Lemma 26): identical to d but every node additionally carries one
  // x1 and one x2 child leaf; a fresh root r wraps d's start symbol.
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), r);
  ex.din->SetRule(r, Regex::Sym(d.start()));
  for (int s = 0; s < d.num_symbols(); ++s) {
    if (s == r || s == x1 || s == x2) continue;
    RegexPtr base = d.RuleRegex(s);
    XTC_CHECK_MSG(base != nullptr,
                  "Theorem 28(1) needs regex-backed DTD rules");
    ex.din->SetRule(
        s, Regex::Concat({base, Regex::Sym(x1), Regex::Sym(x2)}));
  }

  XPathPatternPtr p1_prime = Lemma26Pattern(p1, x1);
  XPathPatternPtr p2_prime = Lemma26Pattern(p2, x2);

  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  ex.transducer->AddState("q0");
  ex.transducer->AddState("q1");
  ex.transducer->AddState("q2");
  ex.transducer->SetInitial(0);
  int sel1 = ex.transducer->AddSelector(Selector{p1_prime, std::nullopt});
  int sel2 = ex.transducer->AddSelector(Selector{p2_prime, std::nullopt});
  // The patterns are evaluated from d's root (r's only child), so the
  // selectors sit on the rule for the start symbol.
  ex.transducer->SetRule(0, r,
                         {RhsNode::Label(r, {RhsNode::State(1)})});
  ex.transducer->SetRule(1, d.start(),
                         {RhsNode::Select(2, sel1), RhsNode::Select(2, sel2)});
  ex.transducer->SetRule(2, x1, {RhsNode::Label(x1)});
  ex.transducer->SetRule(2, x2, {RhsNode::Label(x2)});

  // d_out(r) = x2* + x1 x1* x2 x2*: accepted unless P'1 selected something
  // while P'2 selected nothing.
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), r);
  Status s_out = ex.dout->SetRule("r", "x2* | (x1 x1* x2 x2*)");
  XTC_CHECK_MSG(s_out.ok(), s_out.ToString().c_str());
  return ex;
}

bool XPathContainedBounded(const XPathPattern& p1, const XPathPattern& p2,
                           const Dtd& d, const BruteForceOptions& bounds) {
  Arena arena;
  TreeBuilder builder(&arena);
  StatusOr<std::vector<Node*>> trees =
      EnumerateValidTrees(d, d.start(), bounds, &builder);
  XTC_CHECK_MSG(trees.ok(), trees.status().ToString().c_str());
  for (Node* t : *trees) {
    std::vector<const Node*> sel1 = EvalXPath(p1, t);
    std::vector<const Node*> sel2 = EvalXPath(p2, t);
    for (const Node* n : sel1) {
      if (std::find(sel2.begin(), sel2.end(), n) == sel2.end()) return false;
    }
  }
  return true;
}

bool DfaIntersectionEmpty(const std::vector<Dfa>& dfas) {
  XTC_CHECK(!dfas.empty());
  const int num_symbols = dfas[0].num_symbols();
  std::vector<int> start;
  for (const Dfa& d : dfas) {
    XTC_CHECK(d.initial() != Dfa::kDead);
    start.push_back(d.initial());
  }
  std::set<std::vector<int>> seen{start};
  std::deque<std::vector<int>> queue{start};
  while (!queue.empty()) {
    std::vector<int> cur = queue.front();
    queue.pop_front();
    bool all_final = true;
    for (std::size_t i = 0; i < dfas.size(); ++i) {
      if (!dfas[i].final(cur[i])) {
        all_final = false;
        break;
      }
    }
    if (all_final) return false;
    for (int sym = 0; sym < num_symbols; ++sym) {
      std::vector<int> next(cur.size());
      for (std::size_t i = 0; i < dfas.size(); ++i) {
        next[i] = dfas[i].StepComplete(cur[i], sym);
      }
      if (seen.insert(next).second) queue.push_back(std::move(next));
    }
  }
  return true;
}

}  // namespace xtc
