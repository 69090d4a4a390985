#include "src/core/minvast.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/base/logging.h"
#include "src/schema/witness.h"
#include "src/tree/hashcons.h"

namespace xtc {
namespace {

// Symbolic conformance of T(t) to d_out for hash-consed t: validity and
// output-DFA effects are memoized per (state, shared node), so the check is
// polynomial in the DAG size even when t unfolds exponentially.
class SymbolicChecker {
 public:
  // `forest` may grow while the checker lives (the shrinker interns new
  // nodes); ids never change, so memo entries stay valid.
  SymbolicChecker(const Transducer& t, const Dtd& dout,
                  const SharedForest& forest, Budget* budget)
      : t_(t), dout_(dout), forest_(forest), budget_(budget) {}

  // Whether T(t_root) is a tree satisfying d_out.
  bool OutputConforms(int root) {
    const RhsHedge* rhs = t_.rule(t_.initial(), forest_.label(root));
    // The translation must be a single tree rooted at the output start
    // symbol (Definition 5).
    if (rhs == nullptr || rhs->size() != 1 ||
        (*rhs)[0].kind != RhsNode::Kind::kLabel ||
        (*rhs)[0].label != dout_.start()) {
      return false;
    }
    return TemplateValid(*rhs, root);
  }

  // Latched budget failure: the recursive memoization returns references
  // into memo tables and cannot propagate a Status, so exhaustion latches
  // here and every later call early-outs with a neutral answer. Verdicts
  // are meaningless while status() is non-OK.
  const Status& status() const { return status_; }

  // Effect tables plus validity entries built so far.
  std::uint64_t evaluations() const {
    return eff_memo_.size() + valid_memo_.size();
  }

 private:
  // delta* of d_out(sigma)'s complete view over the string
  // top(T^{p}(t_node)), as a function table Q_sigma -> Q_sigma. It is
  // composed left to right from the identity, fetching each (rhs state,
  // child) table once: O(|rhs|·k) memo lookups plus O(|Q_sigma|·|rhs|·k)
  // array reads. Misses, and so budget checkpoints, come rhs-major and
  // child-minor.
  const std::vector<int>& Eff(int p, int node, int sigma) {
    auto key = std::make_tuple(p, node, sigma);
    auto it = eff_memo_.find(key);
    if (it != eff_memo_.end()) return it->second;
    if (status_.ok()) status_ = BudgetCheck(budget_, "TypecheckMinVast/Eff");
    const Dfa& d = dout_.RuleDfa(sigma);
    std::vector<int> f(static_cast<std::size_t>(d.num_complete_states()));
    for (int x = 0; x < d.num_complete_states(); ++x) {
      f[static_cast<std::size_t>(x)] = x;
    }
    const RhsHedge* rhs = t_.rule(p, forest_.label(node));
    if (rhs != nullptr && status_.ok()) {
      for (const RhsNode& n : *rhs) {
        if (n.kind == RhsNode::Kind::kLabel) {
          for (int& y : f) y = d.StepComplete(y, n.label);
          continue;
        }
        XTC_CHECK(n.kind == RhsNode::Kind::kState);
        for (int c : forest_.children(node)) {
          const std::vector<int>& g = Eff(n.state, c, sigma);
          for (int& y : f) y = g[static_cast<std::size_t>(y)];
        }
      }
    }
    return eff_memo_.emplace(key, std::move(f)).first->second;
  }

  // Whether T^{p}(t_node) partly satisfies d_out.
  bool Valid(int p, int node) {
    if (!status_.ok()) return true;  // unwinding; verdict discarded
    auto key = std::make_pair(p, node);
    auto it = valid_memo_.find(key);
    if (it != valid_memo_.end()) return it->second;
    if (status_.ok()) status_ = BudgetCheck(budget_, "TypecheckMinVast/Valid");
    if (!status_.ok()) return true;
    valid_memo_.emplace(key, true);  // harmless on DAGs (no real cycles)
    const RhsHedge* rhs = t_.rule(p, forest_.label(node));
    bool ok = rhs == nullptr || TemplateValid(*rhs, node);
    valid_memo_[key] = ok;
    return ok;
  }

  // Checks all output nodes produced by this template instantiated at
  // `node`, including everything produced below its states.
  bool TemplateValid(const RhsHedge& rhs, int node) {
    if (!status_.ok()) return true;  // unwinding; verdict discarded
    for (const RhsNode& n : rhs) {
      if (n.kind == RhsNode::Kind::kState) {
        for (int c : forest_.children(node)) {
          if (!Valid(n.state, c)) return false;
        }
        continue;
      }
      XTC_CHECK(n.kind == RhsNode::Kind::kLabel);
      // The children string of this produced node must match d_out(label).
      const Dfa& d = dout_.RuleDfa(n.label);
      int x = d.initial();
      for (const RhsNode& ch : n.children) {
        if (ch.kind == RhsNode::Kind::kLabel) {
          x = d.StepComplete(x, ch.label);
        } else {
          for (int c : forest_.children(node)) {
            x = Eff(ch.state, c, n.label)[static_cast<std::size_t>(x)];
          }
        }
      }
      if (!d.final(x)) return false;
      if (!TemplateValid(n.children, node)) return false;
    }
    return true;
  }

  const Transducer& t_;
  const Dtd& dout_;
  const SharedForest& forest_;
  Budget* budget_;
  Status status_;
  std::map<std::pair<int, int>, bool> valid_memo_;
  std::map<std::tuple<int, int, int>, std::vector<int>> eff_memo_;
};

// Shrinks a counterexample on the DAG by verified substitution before it is
// materialized (t_vast unfolds exponentially; Lemma 14's witnesses do not).
// Two moves, both of which keep the tree inside d_in: replace a subtree by
// t_min of its label, or cut a child the label's RE+ rule can spare (one
// copy of a doubled + run). A move is kept only if T(tree) still violates
// d_out. New ids are hash-consed into the same forest, so the checker's
// memo stays valid across tries and each try only evaluates the rebuilt
// path to the root.
class Shrinker {
 public:
  Shrinker(const Dtd& din, RePlusWitnesses* witnesses,
           SymbolicChecker* checker)
      : din_(din), w_(*witnesses), checker_(*checker) {}

  int Shrink(int root) {
    return ShrinkAt(root, [](int n) { return n; });
  }

 private:
  // Maps a replacement for the node under focus to the root of the whole
  // tree with that replacement plugged in.
  using Plug = std::function<int(int)>;

  // Whether shrinking is over: the try cap is reached or the budget has
  // latched. From then on no move is tried and no position is visited, so
  // the walk stops with the tries instead of covering the unfolded tree.
  bool Done() const { return tries_ >= kMaxTries || !checker_.status().ok(); }

  // Whether the tree rooted at `root` is still a counterexample. Callers
  // check Done() first.
  bool Fails(int root) {
    ++tries_;
    return !checker_.OutputConforms(root);
  }

  // Returns a replacement for `node` such that plug(replacement) is still
  // a counterexample.
  int ShrinkAt(int node, const Plug& plug) {
    const int label = w_.forest.label(node);
    const int t_min = w_.t_min[static_cast<std::size_t>(label)];
    if (node == t_min || Done()) return node;
    if (Fails(plug(t_min))) return t_min;
    std::vector<int> kids = w_.forest.children(node);
    const RePlus& rule = *din_.RuleRePlus(label);
    for (std::size_t j = 0; j < kids.size() && !Done();) {
      std::vector<int> cut = kids;
      cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(j));
      std::vector<int> word;
      for (int c : cut) word.push_back(w_.forest.label(c));
      if (rule.Matches(word) && Fails(plug(w_.forest.Make(label, cut)))) {
        kids = std::move(cut);
      } else {
        ++j;
      }
    }
    for (std::size_t j = 0; j < kids.size() && !Done(); ++j) {
      kids[j] = ShrinkAt(kids[j], [&](int n) {
        std::vector<int> k = kids;
        k[j] = n;
        return plug(w_.forest.Make(label, k));
      });
    }
    return w_.forest.Make(label, kids);
  }

  // Bounds the tries, each polynomial in the DAG. Every visited position
  // other than a t_min costs a try, and Done() ends the walk, so shrinking
  // stays polynomial even where the counterexample cannot be made small.
  static constexpr std::uint64_t kMaxTries = std::uint64_t{1} << 16;

  const Dtd& din_;
  RePlusWitnesses& w_;
  SymbolicChecker& checker_;
  std::uint64_t tries_ = 0;
};

}  // namespace

StatusOr<TypecheckResult> TypecheckMinVast(const Transducer& t, const Dtd& din,
                                           const Dtd& dout,
                                           const TypecheckOptions& options) {
  if (t.HasSelectors()) {
    return FailedPreconditionError("compile selectors before typechecking");
  }
  if (!din.IsRePlusDtd() || !dout.IsRePlusDtd()) {
    return FailedPreconditionError(
        "the t_min/t_vast algorithm requires DTD(RE+) schemas");
  }
  WallTimer timer;
  TypecheckResult result;
  result.arena = std::make_shared<Arena>();
  TreeBuilder builder(result.arena.get());
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
  StatusOr<RePlusWitnesses> witnesses = BuildRePlusWitnesses(din);
  if (!witnesses.ok()) return witnesses.status();
  int t_min = witnesses->t_min[static_cast<std::size_t>(din.start())];
  int t_vast = witnesses->t_vast[static_cast<std::size_t>(din.start())];
  XTC_CHECK_GE(t_min, 0);  // start symbol inhabited

  SymbolicChecker checker(t, dout, witnesses->forest, options.budget);
  int bad = -1;
  if (!checker.OutputConforms(t_min)) {
    bad = t_min;
  } else if (!checker.OutputConforms(t_vast)) {
    bad = t_vast;
  }
  // A latched budget failure invalidates both verdicts above.
  XTC_RETURN_IF_ERROR(checker.status());
  result.stats.configs = static_cast<std::uint64_t>(witnesses->forest.size());
  if (bad == -1) {
    result.typechecks = true;
    result.stats.evaluations = checker.evaluations();
    finalize();
    return result;
  }
  result.typechecks = false;
  if (options.want_counterexample) {
    if (bad != t_min) {
      Shrinker shrinker(din, &*witnesses, &checker);
      bad = shrinker.Shrink(bad);
      XTC_RETURN_IF_ERROR(checker.status());
    }
    XTC_ASSIGN_OR_RETURN(result.counterexample,
                         witnesses->forest.Materialize(
                             bad, &builder, kMaxCounterexampleNodes));
  }
  result.stats.evaluations = checker.evaluations();
  finalize();
  return result;
}

}  // namespace xtc
