#include "src/core/replus.h"

#include <map>
#include <set>

#include "src/base/logging.h"
#include "src/core/minvast.h"
#include "src/core/reachable.h"
#include "src/schema/witness.h"

namespace xtc {
namespace {

// Boolean state-pair relations over the complete view of the output rule
// DFA for one sigma.
using Rel = std::vector<std::vector<bool>>;

Rel IdentityRel(int n) {
  Rel r(static_cast<std::size_t>(n),
        std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i) r[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = true;
  return r;
}

Rel Compose(const Rel& a, const Rel& b) {
  const int n = static_cast<int>(a.size());
  Rel out(static_cast<std::size_t>(n),
          std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) continue;
      for (int k = 0; k < n; ++k) {
        if (b[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)]) {
          out[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] = true;
        }
      }
    }
  }
  return out;
}

bool RelEqual(const Rel& a, const Rel& b) { return a == b; }

Rel Union(const Rel& a, const Rel& b) {
  Rel out = a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (b[i][j]) out[i][j] = true;
    }
  }
  return out;
}

// R+ = R ∪ R∘R ∪ ... (for the X+ exponents of the extended grammar).
Rel TransitiveClosure(const Rel& r) {
  Rel acc = r;
  while (true) {
    Rel next = Union(acc, Compose(acc, r));
    if (RelEqual(next, acc)) return acc;
    acc = std::move(next);
  }
}

// Advances a relation by one DFA symbol step.
Rel StepSymbol(const Rel& r, const Dfa& d, int symbol) {
  const int n = static_cast<int>(r.size());
  Rel out(static_cast<std::size_t>(n),
          std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (r[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
        int k = d.StepComplete(j, symbol);
        out[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] = true;
      }
    }
  }
  return out;
}

class GrammarEngine {
 public:
  GrammarEngine(const Transducer& t, const Dtd& din, const Dtd& dout,
                Budget* budget)
      : t_(t), din_(din), dout_(dout), budget_(budget) {}

  // The relation of nonterminal <p, b> against d_out(sigma)'s DFA:
  // pairs (x, y) with delta*(x, w) = y for some w in L(<p, b>).
  //
  // The recursive memoization cannot thread a Status through its return
  // type (references into memo_), so failures latch into status_: once it
  // is non-OK every call short-circuits with a well-formed placeholder
  // relation and the caller must discard the run. This turns both budget
  // exhaustion and recursive DTD(RE+) rules (formerly a hard abort) into
  // soft errors.
  const Rel& NontermRel(int p, int b, int sigma) {
    auto key = std::make_tuple(p, b, sigma);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const Dfa& d = dout_.RuleDfa(sigma);
    if (status_.ok()) {
      status_ = BudgetCheck(budget_, "TypecheckRePlus/NontermRel");
    }
    if (status_.ok() && visiting_.count(key) != 0) {
      status_ = FailedPreconditionError(
          "recursive DTD(RE+) rule reached from a reachable pair");
    }
    if (!status_.ok()) {
      // Park an identity relation so unwinding callers still index a table
      // of the right dimensions; the memo is poisoned but the engine is
      // single-run and the caller checks status().
      return memo_.emplace(key, IdentityRel(d.num_complete_states()))
          .first->second;
    }
    visiting_.insert(key);
    Rel rel = IdentityRel(d.num_complete_states());
    const RhsHedge* rhs = t_.rule(p, b);
    if (rhs != nullptr) {
      // Body: s_0 <p_1,b_1>^{a_1}...<p_1,b_m>^{a_m} s_1 ... — the grammar of
      // Section 5, driven by top(rhs(p, b)) and the RE+ factors of d_in(b).
      const RePlus* factors = din_.RuleRePlus(b);
      XTC_CHECK(factors != nullptr);
      for (const RhsNode& n : *rhs) {
        if (!status_.ok()) break;
        if (n.kind == RhsNode::Kind::kLabel) {
          rel = StepSymbol(rel, d, n.label);
        } else {
          for (const RePlus::Factor& f : factors->factors()) {
            const Rel& child = NontermRel(n.state, f.symbol, sigma);
            if (!status_.ok()) break;
            rel = Compose(rel, f.plus ? TransitiveClosure(child) : child);
          }
        }
      }
    }
    visiting_.erase(key);
    return memo_.emplace(key, std::move(rel)).first->second;
  }

  // The start-rule relation for rhs node u of rule (q, a): the pattern
  // z_0 q_1 z_1 ... q_k z_k evaluated against d_out(sigma).
  Rel StartRel(int a, const RhsHedge& children, int sigma) {
    const Dfa& d = dout_.RuleDfa(sigma);
    Rel rel = IdentityRel(d.num_complete_states());
    const RePlus* factors = din_.RuleRePlus(a);
    XTC_CHECK(factors != nullptr);
    for (const RhsNode& n : children) {
      if (status_.ok()) {
        status_ = BudgetCheck(budget_, "TypecheckRePlus/StartRel");
      }
      if (!status_.ok()) break;
      if (n.kind == RhsNode::Kind::kLabel) {
        rel = StepSymbol(rel, d, n.label);
      } else {
        for (const RePlus::Factor& f : factors->factors()) {
          const Rel& child = NontermRel(n.state, f.symbol, sigma);
          if (!status_.ok()) break;
          rel = Compose(rel, f.plus ? TransitiveClosure(child) : child);
        }
      }
    }
    return rel;
  }

  std::uint64_t num_nonterminals() const { return memo_.size(); }

  // Latched failure of this engine run; non-OK verdicts are meaningless.
  const Status& status() const { return status_; }

 private:
  const Transducer& t_;
  const Dtd& din_;
  const Dtd& dout_;
  Budget* budget_;
  Status status_;
  std::map<std::tuple<int, int, int>, Rel> memo_;
  std::set<std::tuple<int, int, int>> visiting_;
};

}  // namespace

StatusOr<TypecheckResult> TypecheckRePlus(const Transducer& t, const Dtd& din,
                                          const Dtd& dout,
                                          const TypecheckOptions& options) {
  if (t.HasSelectors()) {
    return FailedPreconditionError("compile selectors before typechecking");
  }
  if (!din.IsRePlusDtd() || !dout.IsRePlusDtd()) {
    return FailedPreconditionError(
        "the Section 5 algorithm requires DTD(RE+) schemas");
  }
  XTC_CHECK(t.alphabet() == din.alphabet() && t.alphabet() == dout.alphabet());

  WallTimer timer;
  TypecheckResult result;
  result.arena = std::make_shared<Arena>();
  TreeBuilder builder(result.arena.get());
  // The scope pins the arena: result.arena is swapped for the minvast
  // engine's arena on the counterexample path below.
  ArenaBudgetScope arena_scope(result.arena, options.budget);
  auto finalize = [&] {
    if (options.budget != nullptr) {
      result.stats.budget_checkpoints = options.budget->checkpoints();
      result.stats.budget_bytes = options.budget->bytes_charged();
      result.stats.elapsed_ms = options.budget->elapsed_ms();
      result.stats.exhaustion = options.budget->cause();
    } else {
      result.stats.elapsed_ms = timer.elapsed_ms();
    }
  };

  if (din.LanguageEmpty()) {
    result.typechecks = true;
    finalize();
    return result;
  }
  const RhsHedge* root_rhs = t.rule(t.initial(), din.start());
  bool violated = false;
  if (root_rhs == nullptr || root_rhs->size() != 1 ||
      (*root_rhs)[0].kind != RhsNode::Kind::kLabel ||
      (*root_rhs)[0].label != dout.start()) {
    violated = true;
  }

  if (!violated) {
    GrammarEngine engine(t, din, dout, options.budget);
    ReachablePairs reach(t, din);
    for (const auto& [q, a] : reach.pairs()) {
      const RhsHedge* rhs = t.rule(q, a);
      if (rhs == nullptr) continue;
      std::vector<const RhsNode*> stack;
      for (const RhsNode& n : *rhs) stack.push_back(&n);
      while (!stack.empty() && !violated) {
        const RhsNode* u = stack.back();
        stack.pop_back();
        if (u->kind != RhsNode::Kind::kLabel) continue;
        for (const RhsNode& c : u->children) stack.push_back(&c);
        Rel rel = engine.StartRel(a, u->children, u->label);
        XTC_RETURN_IF_ERROR(engine.status());
        const Dfa& d = dout.RuleDfa(u->label);
        ++result.stats.evaluations;
        for (int y = 0; y < d.num_complete_states() && !violated; ++y) {
          if (!d.final(y) &&
              rel[static_cast<std::size_t>(d.initial())]
                 [static_cast<std::size_t>(y)]) {
            violated = true;
          }
        }
      }
      if (violated) break;
    }
    result.stats.configs = engine.num_nonterminals();
  }

  result.typechecks = !violated;
  if (violated && options.want_counterexample) {
    // Corollary 38: t_min or t_vast is a counterexample; the Section 6
    // algorithm finds and materializes it. Its verdict must agree; a
    // disagreement is a bug in one engine, reported as an error so one
    // test fails instead of the whole binary aborting.
    StatusOr<TypecheckResult> mv = TypecheckMinVast(t, din, dout, options);
    if (!mv.ok()) return mv.status();
    if (mv->typechecks) {
      return InternalError("grammar and t_min/t_vast engines disagree");
    }
    result.arena = mv->arena;
    result.counterexample = mv->counterexample;
  }
  finalize();
  return result;
}

}  // namespace xtc
