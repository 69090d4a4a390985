#include "src/core/relab.h"

#include <algorithm>
#include <vector>

#include "src/base/logging.h"
#include "src/base/state_set.h"
#include "src/core/brute_force.h"
#include "src/fa/dfa.h"
#include "src/fa/eps_nfa.h"
#include "src/nta/analysis.h"
#include "src/nta/lazy.h"
#include "src/schema/witness.h"
#include "src/td/classes.h"

namespace xtc {
namespace {

// The #-marked totalized template of one rule of T': trees whose nodes
// carry labels over Σ ∪ {#} plus at most one state leaf.
struct MarkedNode {
  int label = -1;  // -1 for the state leaf
  int state = -1;
  std::vector<int> children;  // node ids
};

struct MarkedRule {
  int state;                      // q_T
  int symbol;                     // a
  std::vector<MarkedNode> nodes;  // indexed by id
  std::vector<int> roots;         // top-level trees, in order (>= 1)
  int state_node = -1;            // id of the unique state leaf, or -1
  int state_parent = -1;          // its parent node id
  int state_pos = -1;             // its position among the parent's children
};

int AddMarkedRec(const RhsNode& n, MarkedRule* rule) {
  MarkedNode node;
  if (n.kind == RhsNode::Kind::kState) {
    node.state = n.state;
  } else {
    XTC_CHECK(n.kind == RhsNode::Kind::kLabel);
    node.label = n.label;
  }
  int id = static_cast<int>(rule->nodes.size());
  rule->nodes.push_back(node);
  for (const RhsNode& c : n.children) {
    int cid = AddMarkedRec(c, rule);
    rule->nodes[static_cast<std::size_t>(id)].children.push_back(cid);
  }
  return id;
}

// Builds T''s rule for (state, symbol): wrap top-level states as #(q) and
// turn missing/empty templates into the single leaf #.
MarkedRule MarkRule(const Transducer& t, int state, int symbol,
                    int hash_symbol) {
  MarkedRule rule;
  rule.state = state;
  rule.symbol = symbol;
  const RhsHedge* rhs = t.rule(state, symbol);
  if (rhs == nullptr || rhs->empty()) {
    MarkedNode hash;
    hash.label = hash_symbol;
    rule.nodes.push_back(hash);
    rule.roots.push_back(0);
    return rule;
  }
  for (const RhsNode& n : *rhs) {
    if (n.kind == RhsNode::Kind::kState) {
      MarkedNode hash;
      hash.label = hash_symbol;
      int hid = static_cast<int>(rule.nodes.size());
      rule.nodes.push_back(hash);
      MarkedNode leaf;
      leaf.state = n.state;
      int sid = static_cast<int>(rule.nodes.size());
      rule.nodes.push_back(leaf);
      rule.nodes[static_cast<std::size_t>(hid)].children.push_back(sid);
      rule.roots.push_back(hid);
    } else {
      rule.roots.push_back(AddMarkedRec(n, &rule));
    }
  }
  for (std::size_t id = 0; id < rule.nodes.size(); ++id) {
    const MarkedNode& n = rule.nodes[id];
    for (std::size_t j = 0; j < n.children.size(); ++j) {
      int c = n.children[j];
      if (rule.nodes[static_cast<std::size_t>(c)].state != -1) {
        XTC_CHECK_EQ(rule.state_node, -1);  // del-relab: at most one state
        rule.state_node = c;
        rule.state_parent = static_cast<int>(id);
        rule.state_pos = static_cast<int>(j);
      }
    }
  }
  return rule;
}

}  // namespace

StatusOr<Nta> OutputLanguageNta(const Transducer& t, const Nta& ain,
                                int hash_symbol, Budget* budget) {
  if (!IsDelRelab(t)) {
    return FailedPreconditionError(
        "Lemma 19 requires templates with at most one state (T_del-relab)");
  }
  const int base = hash_symbol;  // input symbols are 0..base-1
  XTC_CHECK_EQ(ain.num_symbols(), base);
  const int n_a = ain.num_states();

  // Inhabitation of (root symbol, A_in state) pairs: stateless templates
  // produce fixed output without traversing the input subtree, so B_in must
  // separately certify that an input subtree with root c and run state q_A
  // exists at all (otherwise the image picks up spurious trees).
  XTC_ASSIGN_OR_RETURN(StateSet reach, ReachableStates(ain, budget));
  auto rootable = [&](int c, int qa) {
    const Nfa* h = ain.Horizontal(qa, c);
    return h != nullptr && h->AcceptsSomeOver(&reach);
  };

  // T''s rules for every (transducer state, base symbol), q-major, so the
  // index is pure arithmetic.
  std::vector<MarkedRule> rules;
  rules.reserve(static_cast<std::size_t>(t.num_states()) *
                static_cast<std::size_t>(base));
  for (int q = 0; q < t.num_states(); ++q) {
    for (int a = 0; a < base; ++a) {
      rules.push_back(MarkRule(t, q, a, hash_symbol));
    }
  }
  auto rule_index = [&](int q, int a) { return q * base + a; };

  // B_in states: (rule, qA, non-state node of the template). Non-state
  // nodes get dense per-rule slots, so the id is offset arithmetic instead
  // of a tuple-map lookup.
  std::vector<std::vector<int>> node_slot(rules.size());
  std::vector<int> rule_slots(rules.size(), 0);
  std::vector<int> rule_base(rules.size(), 0);
  int num_states = 0;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    node_slot[r].assign(rules[r].nodes.size(), -1);
    int slot = 0;
    for (std::size_t u = 0; u < rules[r].nodes.size(); ++u) {
      if (rules[r].nodes[u].state != -1) continue;
      node_slot[r][u] = slot++;
    }
    rule_slots[r] = slot;
    rule_base[r] = num_states;
    num_states += n_a * slot;
  }
  auto id_of = [&](int r, int qa, int u) {
    const std::size_t ri = static_cast<std::size_t>(r);
    return rule_base[ri] + qa * rule_slots[ri] +
           node_slot[ri][static_cast<std::size_t>(u)];
  };

  Nta out(hash_symbol + 1, num_states);

  // Finals: roots of initial-state rules paired with accepting a_in states.
  for (int a = 0; a < base; ++a) {
    int r = rule_index(t.initial(), a);
    // Hedge-shaped and #-rooted initial templates (a missing rule, or a
    // deleting state at the root) never produce a single output tree
    // (Definition 5); the Dtd-level entry point's root pre-check handles
    // them before this automaton is built. They stay non-final, so the
    // complemented B_out, which accepts every #-rooted tree, never sees
    // them.
    if (rules[static_cast<std::size_t>(r)].roots.size() != 1) continue;
    int root = rules[static_cast<std::size_t>(r)].roots[0];
    if (rules[static_cast<std::size_t>(r)]
            .nodes[static_cast<std::size_t>(root)]
            .label == hash_symbol) {
      continue;
    }
    for (int qa = 0; qa < n_a; ++qa) {
      if (ain.final(qa)) out.SetFinal(id_of(r, qa, root));
    }
  }

  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    const int r = static_cast<int>(ri);
    const MarkedRule& rule = rules[ri];
    for (int qa = 0; qa < n_a; ++qa) {
      for (std::size_t ui = 0; ui < rule.nodes.size(); ++ui) {
        if (node_slot[ri][ui] == -1) continue;  // state leaf: no B_in state
        XTC_RETURN_IF_ERROR(BudgetCheck(budget, "OutputLanguageNta"));
        const int u = static_cast<int>(ui);
        const int id = id_of(r, qa, u);
        const MarkedNode& node = rule.nodes[ui];
        if (rule.state_node == -1 && !rootable(rule.symbol, qa)) {
          // Stateless template whose input subtree cannot exist with this
          // A_in state: the B_in state stays uninhabited.
          continue;
        }
        if (u != rule.state_parent) {
          // Fixed children word (possibly empty for leaves).
          std::vector<int> word;
          word.reserve(node.children.size());
          for (int c : node.children) word.push_back(id_of(r, qa, c));
          out.SetTransition(id, node.label, Nfa::SingleWord(num_states, word));
          continue;
        }
        // The state leaf sits at position state_pos among u's children:
        // splice in the substituted language of delta_Ain(qa, a) (the D' of
        // Lemma 19).
        const Nfa* d = ain.Horizontal(qa, rule.symbol);
        if (d == nullptr) continue;  // empty horizontal: no transition at all
        EpsNfa enfa(num_states);
        int cur = enfa.AddState(/*initial=*/true);
        for (int j = 0; j < rule.state_pos; ++j) {
          int next = enfa.AddState();
          enfa.AddEdge(
              cur, id_of(r, qa, node.children[static_cast<std::size_t>(j)]),
              next);
          cur = next;
        }
        // Embed D: reading child state q'_A becomes reading the chain of
        // template roots of rhs'(q', c) for every input symbol c.
        std::vector<int> dmap(static_cast<std::size_t>(d->num_states()));
        for (int s = 0; s < d->num_states(); ++s) {
          dmap[static_cast<std::size_t>(s)] = enfa.AddState();
        }
        for (int s = 0; s < d->num_states(); ++s) {
          if (d->initial(s)) {
            enfa.AddEdge(cur, -1, dmap[static_cast<std::size_t>(s)]);
          }
        }
        int qprime =
            rule.nodes[static_cast<std::size_t>(rule.state_node)].state;
        for (int s = 0; s < d->num_states(); ++s) {
          for (const auto& [child_state, to] : d->Edges(s)) {
            for (int c = 0; c < base; ++c) {
              int r2 = rule_index(qprime, c);
              const std::vector<int>& roots =
                  rules[static_cast<std::size_t>(r2)].roots;
              int from = dmap[static_cast<std::size_t>(s)];
              for (std::size_t k = 0; k < roots.size(); ++k) {
                int target = (k + 1 == roots.size())
                                 ? dmap[static_cast<std::size_t>(to)]
                                 : enfa.AddState();
                enfa.AddEdge(from, id_of(r2, child_state, roots[k]), target);
                from = target;
              }
            }
          }
        }
        // Suffix chain after the spliced language.
        int tail = enfa.AddState();
        for (int s = 0; s < d->num_states(); ++s) {
          if (d->final(s)) {
            enfa.AddEdge(dmap[static_cast<std::size_t>(s)], -1, tail);
          }
        }
        cur = tail;
        for (std::size_t j = static_cast<std::size_t>(rule.state_pos) + 1;
             j < node.children.size(); ++j) {
          int next = enfa.AddState();
          enfa.AddEdge(cur, id_of(r, qa, node.children[j]), next);
          cur = next;
        }
        enfa.SetFinal(cur);
        out.SetTransition(id, node.label, enfa.Build());
      }
    }
  }
  return out;
}

Nta HashEliminationNta(const Nta& aout, int hash_symbol) {
  const int base = hash_symbol;
  XTC_CHECK_EQ(aout.num_symbols(), base);
  const int n = aout.num_states();

  // Index the horizontal NFAs of aout; pair states (h, x, y) mark #-nodes
  // whose spliced-out children drive h from x to y.
  struct HInfo {
    int state;
    int symbol;
    const Nfa* nfa;
    int pair_offset;  // first pair-state id
  };
  std::vector<HInfo> hs;
  int num_states = n;
  for (const auto& [key, nfa] : aout.transitions()) {
    HInfo info;
    info.state = key.first;
    info.symbol = key.second;
    info.nfa = &nfa;
    info.pair_offset = num_states;
    num_states += nfa.num_states() * nfa.num_states();
    hs.push_back(info);
  }

  Nta out(base + 1, num_states);
  for (int q = 0; q < n; ++q) out.SetFinal(q, aout.final(q));

  for (const HInfo& info : hs) {
    const Nfa& h = *info.nfa;
    const int m = h.num_states();
    auto pair_id = [&](int x, int y) { return info.pair_offset + x * m + y; };

    // The lifted automaton: original edges read normal child states; jump
    // edges x --(h,x,y)--> y read #-children. All m^2 + 1 lifted copies
    // share the same edge lists and differ only in initial/final flags, so
    // the edge structure is built once and bulk-copied per copy instead of
    // re-inserted edge by edge (O(m^2) edges per copy, m^2 copies).
    Nfa proto(num_states);
    proto.ReserveStates(m);
    for (int s = 0; s < m; ++s) proto.AddState(false, false);
    for (int s = 0; s < m; ++s) {
      auto& row = proto.MutableEdges(s);
      row.reserve(h.Edges(s).size() + static_cast<std::size_t>(m));
      row = h.Edges(s);
      for (int y = 0; y < m; ++y) row.emplace_back(pair_id(s, y), y);
    }

    auto lift = [&](int init, int fin) {
      // init/fin == -1 keep the original initials/finals.
      Nfa lifted = proto;
      for (int s = 0; s < m; ++s) {
        lifted.SetInitial(s, init == -1 ? h.initial(s) : s == init);
        lifted.SetFinal(s, fin == -1 ? h.final(s) : s == fin);
      }
      return lifted;
    };

    // Normal node: delta(q, a) lifted.
    out.SetTransition(info.state, info.symbol, lift(-1, -1));
    // Pair nodes: labelled #, children must drive h from x to y.
    for (int x = 0; x < m; ++x) {
      for (int y = 0; y < m; ++y) {
        out.SetTransition(pair_id(x, y), hash_symbol, lift(x, y));
      }
    }
  }
  return out;
}

namespace {

// The paper's complement of a DTD(DFA) d_out: its DTA completed with a sink
// state and complemented. A tree rooted at a runs to state a when its
// children's states spell a word of d(a) and to the sink otherwise, so the
// sink's transition on a is d(a)'s rule DFA, completed and complemented
// over the symbols plus the sink. Every rule is a DFA already, so this is
// linear in the size of d_out's rule DFAs.
Nta ComplementedDfaDtd(const Dtd& dout) {
  const int n = dout.num_symbols();
  const int sink = n;
  Nta out(n, n + 1);
  for (int q = 0; q <= n; ++q) out.SetFinal(q, q != dout.start());
  for (int a = 0; a < n; ++a) {
    const Dfa& rule = dout.RuleDfa(a);
    Dfa widened(n + 1);  // the sink letter has no transitions
    for (int s = 0; s < rule.num_states(); ++s) widened.AddState(rule.final(s));
    widened.SetInitial(rule.initial());
    for (int s = 0; s < rule.num_states(); ++s) {
      for (int c = 0; c < n; ++c) {
        const int to = rule.Step(s, c);
        if (to != Dfa::kDead) widened.SetTransition(s, c, to);
      }
    }
    out.SetTransition(a, a, widened.ToNfa());
    out.SetTransition(sink, a, widened.Complemented().ToNfa());
  }
  return out;
}

// Theorem 20's query: is L(B_in) ∩ L(B_out) empty, where B_out accepts the
// #-marked trees whose γ-image lies outside L(aout)? The product's shape
// picks the engine:
//  - `aout_complemented`: aout already accepts the complement (the paper's
//    order, complement then #-eliminate), so B_out = HE(aout) is a second
//    existential factor and the eager bottom-up fold (reachability over
//    the product's states, stopping at the first accepting one) answers in
//    polynomial time;
//  - otherwise aout is any NTA(NFA) and B_out is the complement of
//    HE(aout), which the lazy engine builds by subset construction on the
//    reachable subsets only. HE(aout) is nondeterministic even for a
//    deterministic aout — a #-node's subset records, for every horizontal
//    automaton at once, the run segments its children drive — so this is
//    exponential in the worst case; it pays off where completing aout is
//    exponential anyway (DTD(NFA) and NTA outputs).
StatusOr<bool> DelRelabEmptiness(const Transducer& t, const Nta& ain,
                                 const Nta& aout, bool aout_complemented,
                                 TypecheckStats* stats,
                                 const TypecheckOptions& options) {
  if (options.lazy_resume != nullptr && options.lazy_resume->complete) {
    // A complete snapshot of an equal query already holds the verdict;
    // neither automaton needs building.
    if (options.lazy_export != nullptr) {
      *options.lazy_export = *options.lazy_resume;
    }
    return options.lazy_resume->empty;
  }
  Budget* budget = options.budget;
  const int base = ain.num_symbols();
  XTC_ASSIGN_OR_RETURN(Nta bin, OutputLanguageNta(t, ain, base, budget));
  Nta bout = HashEliminationNta(aout, base);
  LazyProductSpec spec;
  spec.AddNta(&bin);
  LazyOptions lazy_options;
  lazy_options.budget = budget;
  EmptinessOutcome outcome;
  if (aout_complemented) {
    spec.AddNta(&bout);
    XTC_ASSIGN_OR_RETURN(outcome, EagerEmptiness(spec, nullptr, lazy_options));
    // With nothing determinized, the verdict is the whole snapshot.
    if (options.lazy_export != nullptr) {
      *options.lazy_export = LazySnapshot{{}, /*complete=*/true, outcome.empty};
    }
  } else {
    spec.AddDeterminized(&bout, /*complement=*/true);
    lazy_options.max_configs = static_cast<int>(
        std::min<std::uint64_t>(options.max_configs, 1u << 30));
    lazy_options.max_h_configs = lazy_options.max_configs;
    lazy_options.resume = options.lazy_resume;
    lazy_options.export_snapshot = options.lazy_export;
    XTC_ASSIGN_OR_RETURN(outcome, LazyEmptiness(spec, nullptr, lazy_options));
  }
  stats->nta_states = outcome.stats.configs;
  stats->nta_size = outcome.stats.h_configs + outcome.stats.steps;
  return outcome.empty;
}

}  // namespace

StatusOr<TypecheckResult> TypecheckDelRelabNta(const Transducer& t,
                                               const Nta& ain,
                                               const Nta& aout,
                                               const TypecheckOptions& options) {
  WallTimer timer;
  TypecheckResult result;
  result.arena = std::make_shared<Arena>();
  ArenaBudgetScope arena_scope(result.arena, options.budget);
  StatusOr<bool> empty = DelRelabEmptiness(
      t, ain, aout, /*aout_complemented=*/false, &result.stats, options);
  if (!empty.ok()) return empty.status();
  result.typechecks = *empty;
  if (options.budget != nullptr) {
    result.stats.budget_checkpoints = options.budget->checkpoints();
    result.stats.budget_bytes = options.budget->bytes_charged();
    result.stats.elapsed_ms = options.budget->elapsed_ms();
    result.stats.exhaustion = options.budget->cause();
  } else {
    result.stats.elapsed_ms = timer.elapsed_ms();
  }
  return result;
}

StatusOr<TypecheckResult> TypecheckDelRelab(const Transducer& t,
                                            const Dtd& din, const Dtd& dout,
                                            const TypecheckOptions& options) {
  XTC_CHECK(t.alphabet() == din.alphabet() && t.alphabet() == dout.alphabet());
  WallTimer timer;
  TypecheckResult result;
  result.arena = std::make_shared<Arena>();
  TreeBuilder builder(result.arena.get());
  // The scope pins the arena: result.arena may be swapped for the
  // brute-force engine's arena on the counterexample path below.
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
  // Root pre-check: the translation must be a single tree (Definition 5).
  const RhsHedge* root_rhs = t.rule(t.initial(), din.start());
  if (root_rhs == nullptr || root_rhs->size() != 1 ||
      (*root_rhs)[0].kind != RhsNode::Kind::kLabel) {
    result.typechecks = false;
    if (options.want_counterexample) {
      // Best effort: a tripped budget only drops the counterexample.
      StatusOr<Node*> tree =
          MinimalValidTree(din, din.start(), &builder, options.budget);
      if (tree.ok()) result.counterexample = *tree;
    }
    finalize();
    return result;
  }
  Nta ain = Nta::FromDtd(din);
  // DTD(DFA) outputs follow the paper's order (complement, then
  // #-eliminate); DTD(NFA) outputs are complemented on the fly, since
  // completing them is a subset construction per rule anyway.
  const bool dfa_out = dout.IsDfaDtd();
  Nta aout = dfa_out ? ComplementedDfaDtd(dout) : Nta::FromDtd(dout);
  StatusOr<bool> empty =
      DelRelabEmptiness(t, ain, aout, dfa_out, &result.stats, options);
  if (!empty.ok()) return empty.status();
  result.typechecks = *empty;
  if (!result.typechecks && options.want_counterexample) {
    // Recover an input counterexample by bounded search (the product
    // witness is an output tree; see DESIGN.md).
    for (int depth = 2; depth <= 6 && result.counterexample == nullptr;
         ++depth) {
      BruteForceOptions bf;
      bf.max_depth = depth;
      bf.max_width = 4;
      bf.budget = options.budget;
      StatusOr<TypecheckResult> brute = TypecheckBruteForce(t, din, dout, bf);
      if (!brute.ok()) break;  // budget tripped: keep the verdict, no tree
      if (!brute->typechecks) {
        result.arena = brute->arena;
        result.counterexample = brute->counterexample;
      }
    }
  }
  finalize();
  return result;
}

}  // namespace xtc
