#include "src/core/explicit_nta.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/interner.h"
#include "src/base/logging.h"
#include "src/base/state_set.h"
#include "src/core/reachable.h"
#include "src/fa/dfa_reach.h"

namespace xtc {
namespace {

// One obligation (p, l, r) against the output DFA of one sigma.
struct Obl {
  int p;
  int l;
  int r;

  auto operator<=>(const Obl&) const = default;
};

// B-state identities. `u` indexes label nodes of rhs(q, a) in preorder.
struct StateKey {
  enum class Kind { kValid, kFind, kCheck, kOblig };
  Kind kind;
  int a = -1;      // input symbol
  int q = -1;      // kFind/kCheck
  int u = -1;      // kCheck: label-node index
  int sigma = -1;  // kOblig
  std::vector<Obl> obls;

  auto operator<=>(const StateKey&) const = default;
};

// An under-construction horizontal NFA: edges carry B-state ids as symbols.
struct HSpec {
  int symbol;  // the input symbol this transition reads
  int num_local = 0;
  std::vector<int> initials;
  std::vector<int> finals;
  std::vector<std::tuple<int, int, int>> edges;  // (from, B-state, to)
};

// The top-level split of a template hedge (see trac.cc).
struct TopPattern {
  std::vector<int> states;
  std::vector<std::vector<int>> seps;
};

TopPattern SplitTop(const RhsHedge& rhs) {
  TopPattern out;
  out.seps.emplace_back();
  for (const RhsNode& n : rhs) {
    if (n.kind == RhsNode::Kind::kLabel) {
      out.seps.back().push_back(n.label);
    } else {
      out.states.push_back(n.state);
      out.seps.emplace_back();
    }
  }
  return out;
}

// Collects the label nodes of a template in preorder.
void LabelNodes(const RhsHedge& rhs, std::vector<const RhsNode*>* out) {
  for (const RhsNode& n : rhs) {
    if (n.kind != RhsNode::Kind::kLabel) continue;
    out->push_back(&n);
    LabelNodes(n.children, out);
  }
}

class Builder {
 public:
  Builder(const Transducer& t, const Dtd& din, const Dtd& dout,
          int max_states, Budget* budget)
      : t_(t), din_(din), dout_(dout), max_states_(max_states),
        budget_(budget), reach_(t, din) {}

  StatusOr<Nta> Build();

 private:
  int Intern(StateKey key) {
    // Encoded as a flat int key; the interner id is dense and doubles as
    // the B-state id (keys_ mirrors it for decoding in Emit).
    key_buf_.clear();
    key_buf_.reserve(5 + 3 * key.obls.size());
    key_buf_.push_back(static_cast<int>(key.kind));
    key_buf_.push_back(key.a);
    key_buf_.push_back(key.q);
    key_buf_.push_back(key.u);
    key_buf_.push_back(key.sigma);
    for (const Obl& obl : key.obls) {
      key_buf_.push_back(obl.p);
      key_buf_.push_back(obl.l);
      key_buf_.push_back(obl.r);
    }
    int id = ids_.Intern(key_buf_);
    if (id < static_cast<int>(keys_.size())) return id;
    keys_.push_back(std::move(key));
    specs_.emplace_back();
    worklist_.push_back(id);
    return id;
  }

  Status Emit(int id);
  void EmitValid(int id, int a);
  void EmitFind(int id, int a, int q);
  // Shared product construction for check (complement = true, target unused)
  // and oblig (exact targets) states.
  Status EmitProduct(int id, int a, int sigma,
                     const std::vector<int>& copy_states,
                     const std::vector<int>& copy_starts,  // -1 = guessed
                     const std::vector<std::vector<int>>& group_first,
                     const std::vector<std::vector<std::vector<int>>>& group_seps,
                     const std::vector<int>& group_targets);
  void EmitDinLifted(int id, int a);

  // Reachable-set cache over A_sigma, the complete view of
  // dout.RuleDfa(sigma); the borrowed DFA pointer is address-stable (the
  // rule cache never moves).
  const StateSet& OutReachable(int sigma, int from) {
    if (out_reach_.size() < static_cast<std::size_t>(sigma) + 1) {
      out_reach_.resize(static_cast<std::size_t>(sigma) + 1);
    }
    std::unique_ptr<DfaReachability>& reach =
        out_reach_[static_cast<std::size_t>(sigma)];
    if (reach == nullptr) {
      reach = std::make_unique<DfaReachability>(&dout_.RuleDfa(sigma));
    }
    return reach->From(from);
  }

  const Transducer& t_;
  const Dtd& din_;
  const Dtd& dout_;
  int max_states_;
  Budget* budget_;
  ReachablePairs reach_;

  SubsetInterner ids_;
  std::vector<int> key_buf_;
  std::vector<StateKey> keys_;
  std::deque<int> worklist_;
  std::vector<std::vector<HSpec>> specs_;  // per B-state, parallel to keys_
  std::vector<int> finals_;
  std::vector<std::unique_ptr<DfaReachability>> out_reach_;  // per sigma
};

// valid(a): the rule DFA of d_in(a) lifted over valid(c) child states.
void Builder::EmitValid(int id, int a) { EmitDinLifted(id, a); }

void Builder::EmitDinLifted(int id, int a) {
  const Dfa& d = din_.RuleDfa(a);
  HSpec spec;
  spec.symbol = a;
  spec.num_local = d.num_states();
  if (d.initial() == Dfa::kDead) return;
  spec.initials.push_back(d.initial());
  for (int s = 0; s < d.num_states(); ++s) {
    if (d.final(s)) spec.finals.push_back(s);
    for (int c = 0; c < d.num_symbols(); ++c) {
      int to = d.Step(s, c);
      if (to == Dfa::kDead) continue;
      StateKey child;
      child.kind = StateKey::Kind::kValid;
      child.a = c;
      spec.edges.emplace_back(s, Intern(child), to);
    }
  }
  specs_[id].push_back(std::move(spec));
}

void Builder::EmitFind(int id, int a, int q) {
  const RhsHedge* rhs = t_.rule(q, a);
  if (rhs == nullptr) return;  // no violation can originate below
  StateSet states(t_.num_states());
  StatesInRhs(*rhs, &states);
  const Dfa& d = din_.RuleDfa(a);
  if (d.initial() == Dfa::kDead) return;
  // Local states: (din DFA state, marked-seen flag) encoded as s*2+flag.
  HSpec spec;
  spec.symbol = a;
  spec.num_local = d.num_states() * 2;
  spec.initials.push_back(d.initial() * 2);
  for (int s = 0; s < d.num_states(); ++s) {
    if (d.final(s)) spec.finals.push_back(s * 2 + 1);
    for (int c = 0; c < d.num_symbols(); ++c) {
      int to = d.Step(s, c);
      if (to == Dfa::kDead) continue;
      StateKey vchild;
      vchild.kind = StateKey::Kind::kValid;
      vchild.a = c;
      int vid = Intern(vchild);
      spec.edges.emplace_back(s * 2, vid, to * 2);
      spec.edges.emplace_back(s * 2 + 1, vid, to * 2 + 1);
      // The single marked child: (c, p) "find" or (c, p, u) "check".
      for (int p = 0; p < t_.num_states(); ++p) {
        if (!states.Test(p)) continue;
        if (!reach_.IsReachable(p, c)) continue;
        StateKey fchild;
        fchild.kind = StateKey::Kind::kFind;
        fchild.a = c;
        fchild.q = p;
        spec.edges.emplace_back(s * 2, Intern(fchild), to * 2 + 1);
        const RhsHedge* crhs = t_.rule(p, c);
        if (crhs == nullptr) continue;
        std::vector<const RhsNode*> labels;
        LabelNodes(*crhs, &labels);
        for (std::size_t u = 0; u < labels.size(); ++u) {
          StateKey cchild;
          cchild.kind = StateKey::Kind::kCheck;
          cchild.a = c;
          cchild.q = p;
          cchild.u = static_cast<int>(u);
          spec.edges.emplace_back(s * 2, Intern(cchild), to * 2 + 1);
        }
      }
    }
  }
  specs_[id].push_back(std::move(spec));
}

Status Builder::EmitProduct(
    int id, int a, int sigma, const std::vector<int>& copy_states,
    const std::vector<int>& copy_starts,
    const std::vector<std::vector<int>>& group_first,
    const std::vector<std::vector<std::vector<int>>>& group_seps,
    const std::vector<int>& group_targets) {
  const Dfa& a_sigma = dout_.RuleDfa(sigma);
  const Dfa& d = din_.RuleDfa(a);
  if (d.initial() == Dfa::kDead) return Status::Ok();
  const int k = static_cast<int>(copy_states.size());
  const int n_sigma = a_sigma.num_complete_states();

  // Local states: (din state, y-vector, guess-vector), explored lazily from
  // all initial guess combinations.
  std::vector<int> guess_pos;
  for (int c = 0; c < k; ++c) {
    if (copy_starts[static_cast<std::size_t>(c)] == -1) guess_pos.push_back(c);
  }
  using Local = std::pair<int, std::vector<int>>;  // (din state, y ++ guesses)
  // Locals interned by hashed key [ds, rest...]; ids are dense in discovery
  // order, so an id cursor doubles as the BFS queue below.
  SubsetInterner local_ids;
  std::vector<Local> locals;
  std::vector<int> local_key;
  auto intern_local = [&](int ds, std::vector<int> rest) {
    local_key.clear();
    local_key.reserve(rest.size() + 1);
    local_key.push_back(ds);
    local_key.insert(local_key.end(), rest.begin(), rest.end());
    int lid = local_ids.Intern(local_key);
    if (lid < static_cast<int>(locals.size())) return lid;
    locals.emplace_back(ds, std::move(rest));
    return lid;
  };

  HSpec spec;
  spec.symbol = a;

  // All guess combinations seed the initial states.
  std::vector<int> guesses(guess_pos.size(), 0);
  while (true) {
    std::vector<int> rest(static_cast<std::size_t>(k) + guesses.size());
    for (int c = 0; c < k; ++c) {
      int start = copy_starts[static_cast<std::size_t>(c)];
      if (start == -1) {
        for (std::size_t gp = 0; gp < guess_pos.size(); ++gp) {
          if (guess_pos[gp] == c) start = guesses[gp];
        }
      }
      rest[static_cast<std::size_t>(c)] = start;
    }
    for (std::size_t gp = 0; gp < guesses.size(); ++gp) {
      rest[static_cast<std::size_t>(k) + gp] = guesses[gp];
    }
    spec.initials.push_back(intern_local(d.initial(), std::move(rest)));
    std::size_t pos = 0;
    while (pos < guesses.size()) {
      if (++guesses[pos] < n_sigma) break;
      guesses[pos] = 0;
      ++pos;
    }
    if (pos == guesses.size()) break;
  }

  auto is_final = [&](const Local& local) {
    int ds = local.first;
    if (!d.final(ds)) return false;
    const std::vector<int>& rest = local.second;
    for (std::size_t g = 0; g < group_first.size(); ++g) {
      const std::vector<int>& firsts = group_first[g];
      const std::vector<std::vector<int>>& seps = group_seps[g];
      for (std::size_t j = 0; j < firsts.size(); ++j) {
        int copy = firsts[j];
        int end = a_sigma.RunComplete(rest[static_cast<std::size_t>(copy)],
                                      seps[j + 1]);
        if (j + 1 < firsts.size()) {
          // Chained: must equal the guessed start of the next copy.
          int next = firsts[j + 1];
          int gi = -1;
          for (std::size_t gp = 0; gp < guess_pos.size(); ++gp) {
            if (guess_pos[gp] == next) gi = static_cast<int>(gp);
          }
          XTC_CHECK_GE(gi, 0);
          if (end != static_cast<int>(
                         rest[static_cast<std::size_t>(k) +
                              static_cast<std::size_t>(gi)])) {
            return false;
          }
        } else if (group_targets[g] >= 0) {
          if (end != group_targets[g]) return false;
        } else if (a_sigma.final(end)) {
          return false;  // complement acceptance (check states)
        }
      }
    }
    return true;
  };

  // The z-odometer below is the innermost loop; its polling is amortized.
  BudgetGate gate(budget_);
  for (int lid = 0; lid < static_cast<int>(locals.size()); ++lid) {
    XTC_RETURN_IF_ERROR(
        BudgetCheck(budget_, "BuildCounterexampleNta/EmitProduct"));
    // Copy: locals may reallocate as new configurations are minted below.
    Local local = locals[static_cast<std::size_t>(lid)];
    if (is_final(local)) spec.finals.push_back(lid);
    if (static_cast<int>(locals.size()) > max_states_ * 4) {
      return ResourceExhaustedError(
          "explicit Lemma 14 construction exceeded the local-state budget");
    }
    // Per-copy target candidates: an obligation (p, l, r) is satisfiable
    // only when r is reachable from l in A_sigma (the run follows real
    // edges), so the odometer ranges over the reachable sets instead of
    // all of n_sigma^k. Depends only on the local state, not on c.
    std::vector<std::vector<int>> cand(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      cand[static_cast<std::size_t>(i)] =
          OutReachable(sigma, local.second[static_cast<std::size_t>(i)])
              .ToVector();
    }
    for (int c = 0; c < d.num_symbols(); ++c) {
      int ds2 = d.Step(local.first, c);
      if (ds2 == Dfa::kDead) continue;
      std::vector<std::size_t> zi(static_cast<std::size_t>(k), 0);
      std::vector<int> z(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i) {
        z[static_cast<std::size_t>(i)] = cand[static_cast<std::size_t>(i)][0];
      }
      while (true) {
        XTC_RETURN_IF_ERROR(gate.Poll("BuildCounterexampleNta/odometer"));
        std::vector<Obl> obls;
        obls.reserve(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          obls.push_back(Obl{copy_states[static_cast<std::size_t>(i)],
                             local.second[static_cast<std::size_t>(i)],
                             z[static_cast<std::size_t>(i)]});
        }
        std::sort(obls.begin(), obls.end());
        obls.erase(std::unique(obls.begin(), obls.end()), obls.end());
        bool contradictory = false;
        for (std::size_t i = 1; i < obls.size(); ++i) {
          if (obls[i].p == obls[i - 1].p && obls[i].l == obls[i - 1].l &&
              obls[i].r != obls[i - 1].r) {
            contradictory = true;
          }
        }
        if (!contradictory) {
          StateKey child;
          child.kind = StateKey::Kind::kOblig;
          child.a = c;
          child.sigma = sigma;
          child.obls = std::move(obls);
          int cid = Intern(child);
          if (static_cast<int>(keys_.size()) > max_states_) {
            return ResourceExhaustedError(
                "explicit Lemma 14 construction exceeded the state budget");
          }
          std::vector<int> rest2 = local.second;
          for (int i = 0; i < k; ++i) {
            rest2[static_cast<std::size_t>(i)] = z[static_cast<std::size_t>(i)];
          }
          spec.edges.emplace_back(lid, cid, intern_local(ds2, std::move(rest2)));
        }
        int pos = 0;
        while (pos < k) {
          const std::vector<int>& ci = cand[static_cast<std::size_t>(pos)];
          if (++zi[static_cast<std::size_t>(pos)] < ci.size()) {
            z[static_cast<std::size_t>(pos)] =
                ci[zi[static_cast<std::size_t>(pos)]];
            break;
          }
          zi[static_cast<std::size_t>(pos)] = 0;
          z[static_cast<std::size_t>(pos)] = ci[0];
          ++pos;
        }
        if (pos == k) break;
      }
    }
  }
  spec.num_local = static_cast<int>(locals.size());
  specs_[id].push_back(std::move(spec));
  return Status::Ok();
}

Status Builder::Emit(int id) {
  const StateKey key = keys_[static_cast<std::size_t>(id)];
  switch (key.kind) {
    case StateKey::Kind::kValid:
      EmitValid(id, key.a);
      return Status::Ok();
    case StateKey::Kind::kFind:
      EmitFind(id, key.a, key.q);
      return Status::Ok();
    case StateKey::Kind::kCheck: {
      const RhsHedge* rhs = t_.rule(key.q, key.a);
      XTC_CHECK(rhs != nullptr);
      std::vector<const RhsNode*> labels;
      LabelNodes(*rhs, &labels);
      const RhsNode* u = labels[static_cast<std::size_t>(key.u)];
      TopPattern pat = SplitTop(u->children);
      const Dfa& a_sigma = dout_.RuleDfa(u->label);
      if (pat.states.empty()) {
        // Constant child string: a violation iff rejected by A_sigma.
        if (!a_sigma.Accepts(pat.seps[0])) EmitDinLifted(id, key.a);
        return Status::Ok();
      }
      std::vector<int> starts(pat.states.size(), -1);
      starts[0] = a_sigma.RunComplete(a_sigma.initial(), pat.seps[0]);
      std::vector<int> firsts(pat.states.size());
      for (std::size_t j = 0; j < pat.states.size(); ++j) {
        firsts[j] = static_cast<int>(j);
      }
      return EmitProduct(id, key.a, u->label, pat.states, starts, {firsts},
                         {pat.seps}, {-1});
    }
    case StateKey::Kind::kOblig: {
      const Dfa& a_sigma = dout_.RuleDfa(key.sigma);
      std::vector<int> copy_states;
      std::vector<int> copy_starts;
      std::vector<std::vector<int>> group_first;
      std::vector<std::vector<std::vector<int>>> group_seps;
      std::vector<int> group_targets;
      for (const Obl& obl : key.obls) {
        const RhsHedge* rhs = t_.rule(obl.p, key.a);
        if (rhs == nullptr) {
          if (obl.l != obl.r) return Status::Ok();  // empty language
          continue;
        }
        TopPattern pat = SplitTop(*rhs);
        if (pat.states.empty()) {
          if (a_sigma.RunComplete(obl.l, pat.seps[0]) != obl.r) {
            return Status::Ok();
          }
          continue;
        }
        std::vector<int> firsts;
        for (std::size_t j = 0; j < pat.states.size(); ++j) {
          firsts.push_back(static_cast<int>(copy_states.size()) +
                           static_cast<int>(j));
        }
        for (std::size_t j = 0; j < pat.states.size(); ++j) {
          copy_states.push_back(pat.states[j]);
          copy_starts.push_back(
              j == 0 ? a_sigma.RunComplete(obl.l, pat.seps[0]) : -1);
        }
        group_first.push_back(std::move(firsts));
        group_seps.push_back(pat.seps);
        group_targets.push_back(obl.r);
      }
      if (copy_states.empty()) {
        // All obligations statically satisfied: any valid subtree works.
        EmitDinLifted(id, key.a);
        return Status::Ok();
      }
      return EmitProduct(id, key.a, key.sigma, copy_states, copy_starts,
                         group_first, group_seps, group_targets);
    }
  }
  return Status::Ok();
}

StatusOr<Nta> Builder::Build() {
  XTC_CHECK_MSG(!t_.HasSelectors(), "compile selectors first");
  // Root handling (see trac.cc): B is the d_in automaton when every valid
  // input is a counterexample.
  const RhsHedge* root_rhs = t_.rule(t_.initial(), din_.start());
  bool all_bad = root_rhs == nullptr || root_rhs->size() != 1 ||
                 (*root_rhs)[0].kind != RhsNode::Kind::kLabel ||
                 (*root_rhs)[0].label != dout_.start();
  if (all_bad) {
    StateKey root;
    root.kind = StateKey::Kind::kValid;
    root.a = din_.start();
    finals_.push_back(Intern(root));
  } else if (!din_.LanguageEmpty()) {
    StateKey find_root;
    find_root.kind = StateKey::Kind::kFind;
    find_root.a = din_.start();
    find_root.q = t_.initial();
    finals_.push_back(Intern(find_root));
    std::vector<const RhsNode*> labels;
    LabelNodes(*root_rhs, &labels);
    for (std::size_t u = 0; u < labels.size(); ++u) {
      StateKey check_root;
      check_root.kind = StateKey::Kind::kCheck;
      check_root.a = din_.start();
      check_root.q = t_.initial();
      check_root.u = static_cast<int>(u);
      finals_.push_back(Intern(check_root));
    }
  }

  while (!worklist_.empty()) {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget_, "BuildCounterexampleNta/Build"));
    int id = worklist_.front();
    worklist_.pop_front();
    if (static_cast<int>(keys_.size()) > max_states_) {
      return ResourceExhaustedError(
          "explicit Lemma 14 construction exceeded the state budget");
    }
    Status s = Emit(id);
    if (!s.ok()) return s;
  }

  const int n = static_cast<int>(keys_.size());
  Nta out(din_.num_symbols(), n);
  for (int f : finals_) out.SetFinal(f);
  for (int id = 0; id < n; ++id) {
    for (const HSpec& spec : specs_[static_cast<std::size_t>(id)]) {
      Nfa h(n);
      h.ReserveStates(spec.num_local);
      for (int s = 0; s < spec.num_local; ++s) h.AddState();
      for (int s : spec.initials) h.SetInitial(s);
      for (int s : spec.finals) h.SetFinal(s);
      for (const auto& [from, sym, to] : spec.edges) {
        h.AddTransition(from, sym, to);
      }
      out.SetTransition(id, spec.symbol, std::move(h));
    }
  }
  return out;
}

}  // namespace

StatusOr<Nta> BuildCounterexampleNta(const Transducer& t, const Dtd& din,
                                     const Dtd& dout, int max_states,
                                     Budget* budget) {
  Builder builder(t, din, dout, max_states, budget);
  return builder.Build();
}

}  // namespace xtc
