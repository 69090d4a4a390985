#include "src/core/trac.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/interner.h"
#include "src/base/logging.h"
#include "src/base/state_set.h"
#include "src/core/reachable.h"
#include "src/fa/dfa_reach.h"
#include "src/schema/witness.h"
#include "src/td/exec.h"

namespace xtc {
namespace {

// One obligation: top(T^{p}(t)) must drive A_sigma from `l` to `r`.
struct Obl {
  int p;
  int l;
  int r;

  auto operator<=>(const Obl&) const = default;
};

// A template's top level split into constant label segments and states:
// seps[0] s[0] seps[1] s[1] ... s[k-1] seps[k]. The states and separators
// live in the engine's flat pattern store; see Engine::Sep.
struct TopPattern {
  int states_off;  // s[0..count) at pat_states_[states_off ..]
  int count;       // k, the number of states
  int bounds_off;  // seps[j] = pat_labels_[bounds[j] .. bounds[j+1]), where
                   // bounds = pat_bounds_[bounds_off .. bounds_off + k + 2)
};

// One simulated copy of A_sigma during the hedge product: `state` is the
// transducer state whose output this copy tracks; `start` is the DFA state
// it begins in, or -1 when it must be guessed (within-obligation chaining),
// in which case `guess` is its index into the guess vector.
struct Copy {
  int state;
  int start;
  int guess;
};

// How one obligation's copies are verified at the end of the hedge.
struct Group {
  int first_copy;  // index of its first copy
  int pattern;     // the obligation's TopPattern (w_0..w_k); k = its count
  int target;      // r_i, or -1 for a complement check
};

// A singleton candidate: child config Sat(c, A_sigma, [(p, y, z)]) is true.
struct Cand {
  int z;
  int sid;
};

// Back-pointer of a product configuration in HedgeSearch's BFS.
struct Parent {
  int prev;
  int symbol;
  int child_cfg;
};

// A half-open range of one of the engine's flat pools.
struct Range {
  int off = 0;
  int len = 0;
};

// Per-HedgeSearch memo of singleton candidate lists, keyed by [c, p, y]
// (child symbol, copy state, copy start). A small open-addressed table of
// ids over the keys one evaluation touches, never sized by the alphabet;
// Clear() resets only the slots in use. Lists live in one flat pool. It is
// looked up once per (product state, child symbol, copy); keyed through a
// SubsetInterner instead, with its general key hashing, the whole search
// on WidthFamily(7,7) ran about twice as long.
class CandidateMemo {
 public:
  // Forgets every key, keeping capacity.
  void Clear() {
    for (const Key& key : keys_) table_[static_cast<std::size_t>(key.slot)] = -1;
    keys_.clear();
    lists_.clear();
    pool_.clear();
  }

  // The id of [c, p, y]; -1 when the key is new, in which case the caller
  // appends its candidates with Add() and then calls Seal(c, p, y).
  int Find(int c, int p, int y) const {
    if (table_.empty()) return -1;
    for (std::size_t slot = Slot(c, p, y);; slot = (slot + 1) & mask_) {
      const int id = table_[slot];
      if (id == -1) return -1;
      const Key& key = keys_[static_cast<std::size_t>(id)];
      if (key.c == c && key.p == p && key.y == y) return id;
    }
  }

  // Opens the list of a key about to be sealed.
  void Open() { open_ = pool_.size(); }
  void Add(Cand cand) { pool_.push_back(cand); }
  // Closes the list opened last as the candidates of new key [c, p, y].
  int Seal(int c, int p, int y) {
    const int id = static_cast<int>(keys_.size());
    lists_.push_back(Range{static_cast<int>(open_),
                           static_cast<int>(pool_.size() - open_)});
    keys_.push_back(Key{c, p, y, -1});
    // Keep the load factor at most 1/2.
    if (keys_.size() * 2 > table_.size()) {
      Rehash(std::max<std::size_t>(16, table_.size() * 2));
    } else {
      Place(id);
    }
    return id;
  }

  std::span<const Cand> List(int id) const {
    const Range list = lists_[static_cast<std::size_t>(id)];
    return std::span<const Cand>(pool_.data() + list.off,
                                 static_cast<std::size_t>(list.len));
  }

 private:
  struct Key {
    int c;
    int p;
    int y;
    int slot;
  };

  std::size_t Slot(int c, int p, int y) const {
    std::uint64_t h =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)) *
            0x9e3779b97f4a7c15ULL ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) *
            0xc2b2ae3d27d4eb4fULL ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) *
            0x165667b19e3779f9ULL;
    return static_cast<std::size_t>(h ^ (h >> 32)) & mask_;
  }

  void Place(int id) {
    Key& key = keys_[static_cast<std::size_t>(id)];
    std::size_t slot = Slot(key.c, key.p, key.y);
    while (table_[slot] != -1) slot = (slot + 1) & mask_;
    table_[slot] = id;
    key.slot = static_cast<int>(slot);
  }

  void Rehash(std::size_t size) {
    table_.assign(size, -1);
    mask_ = size - 1;
    for (std::size_t id = 0; id < keys_.size(); ++id) {
      Place(static_cast<int>(id));
    }
  }

  std::vector<Key> keys_;
  std::vector<Range> lists_;
  std::vector<Cand> pool_;
  std::vector<int> table_;  // power-of-two size, -1 = empty
  std::size_t mask_ = 0;
  std::size_t open_ = 0;
};

class Engine {
 public:
  Engine(const Transducer& t, const Dtd& din, const Dtd& dout,
         const TypecheckOptions& options)
      : t_(t),
        din_(din),
        dout_(dout),
        options_(options),
        reach_(t, din) {}

  StatusOr<TypecheckResult> Run();

 private:
  struct Entry {
    // Sat configuration (is_top == false): exists t in L(din, b) meeting all
    // obligations against A_sigma. Top check (is_top == true): the rhs node
    // of a rule (q, b) labelled sigma can produce a child string rejected
    // by A_sigma.
    bool is_top = false;
    bool status = false;
    bool queued = true;
    bool has_witness = false;
    int b = -1;        // input symbol (Sat) / input symbol a (top)
    int sigma = -1;    // output DFA index
    int pattern = -1;  // top only: the rhs node's children, in patterns_
    Range obls;        // Sat only: sorted obligations, in obl_pool_
    // Entries whose evaluation consulted this one while it was false; they
    // are re-queued when it flips. An index-linked list in dep_pool_, in
    // insertion order; insertion dedups consecutive adds (the common repeat
    // pattern) and Solve's queued guard absorbs the rest.
    int dep_head = -1;
    int dep_tail = -1;
    // Witness: per child position, (input symbol, child config id or -1),
    // in witness_pool_.
    Range witness;
  };

  struct DepLink {
    int dep;
    int next;
  };

  // Lemma 14 runs A_sigma as a complete automaton: the engine steps the
  // rule DFA's complete view (RunComplete, num_complete_states), where a
  // missing transition goes to the implicit non-final sink.
  const Dfa& OutDfa(int sigma) const { return dout_.RuleDfa(sigma); }
  // Partial DFA: dead steps prune the child-symbol enumeration.
  const Dfa& InDfa(int b) const { return din_.RuleDfa(b); }

  // Demand-driven reachability over OutDfa(sigma)'s complete view:
  // obligation targets r with no path from l are unsatisfiable (the
  // obligation constrains the run delta*(l, top(T^p(t))), which only follows
  // real edges), so the singleton enumeration skips them. RuleDfa's cached
  // DFA is address-stable after first use, so the borrowed pointer stays
  // valid.
  const StateSet& OutReachable(int sigma, int from) {
    if (out_reach_.size() < static_cast<std::size_t>(sigma + 1)) {
      out_reach_.resize(static_cast<std::size_t>(sigma + 1));
    }
    std::unique_ptr<DfaReachability>& reach =
        out_reach_[static_cast<std::size_t>(sigma)];
    if (reach == nullptr) {
      reach = std::make_unique<DfaReachability>(&OutDfa(sigma));
    }
    return reach->From(from);
  }

  // Appends the top-level split of `rhs` to the pattern store.
  int AddPattern(const RhsHedge& rhs);
  // The pattern of rule (p, b), built on first use; -1 when there is no
  // rule (top(T^p(t)) = epsilon).
  int RulePattern(int p, int b);
  std::span<const int> Sep(const TopPattern& pat, int j) const {
    const int* bounds = pat_bounds_.data() + pat.bounds_off + j;
    return std::span<const int>(pat_labels_.data() + bounds[0],
                                static_cast<std::size_t>(bounds[1] - bounds[0]));
  }
  int PatState(const TopPattern& pat, int j) const {
    return pat_states_[static_cast<std::size_t>(pat.states_off + j)];
  }

  std::span<const Obl> Obls(const Entry& e) const {
    return std::span<const Obl>(obl_pool_.data() + e.obls.off,
                                static_cast<std::size_t>(e.obls.len));
  }
  std::span<const std::pair<int, int>> Witness(const Entry& e) const {
    return std::span<const std::pair<int, int>>(
        witness_pool_.data() + e.witness.off,
        static_cast<std::size_t>(e.witness.len));
  }

  // Interns a Sat configuration; returns -1 when it is statically false
  // (contradictory obligations: one state, one start, two targets).
  // Sorts and dedups *obls in place; the caller's buffer is scratch.
  int GetSatConfig(int b, int sigma, std::vector<Obl>* obls);

  // Runs the worklist to the least fixpoint.
  Status Solve();

  // Evaluates entry `id` under current knowledge; true = satisfiable.
  StatusOr<bool> Eval(int id);

  // Appends one copy per state of `pattern` to copies_, the first starting
  // at `start`, and the group checking them against `target`.
  void AddGroup(int pattern, int start, int target);

  // Expands a Sat entry's obligations to copies_/groups_. Returns false if
  // an obligation is statically violated (no copies case mismatch).
  bool ExpandSat(int id);

  // The memo id of the singleton candidates of child symbol `c`, copy
  // state `p` and copy start `y`, computing them on first use in this
  // HedgeSearch (for entry `id`, output DFA `sigma`). Returns -1 when the
  // configuration cap trips.
  int Candidates(int id, int c, int sigma, int p, int y);

  // Shared hedge product search over copies_/groups_ for entry `id` (with
  // input symbol `b` and output DFA `sigma`). Returns true and stores the
  // witness into the entry if an accepting configuration is found. Entries
  // are addressed by id because interning child configurations may
  // reallocate entries_.
  StatusOr<bool> HedgeSearch(int id, int b, int sigma);

  // Acceptance test of HedgeSearch for a product configuration (din state
  // accepted, copy states y) under the current guess vector.
  bool Accepts(const Dfa& a_sigma, std::span<const int> y) const;

  Node* BuildConfigWitness(int id, TreeBuilder* builder,
                           std::size_t* budget);

  const Transducer& t_;
  const Dtd& din_;
  const Dtd& dout_;
  TypecheckOptions options_;
  ReachablePairs reach_;
  TypecheckStats stats_;

  // Records `dep` as a dependent of entry `id`, skipping consecutive
  // duplicates (the odometer re-consults the same child many times in a
  // row).
  void AddDependent(int id, int dep) {
    Entry& e = entries_[static_cast<std::size_t>(id)];
    if (e.dep_tail != -1 &&
        dep_pool_[static_cast<std::size_t>(e.dep_tail)].dep == dep) {
      return;
    }
    const int link = static_cast<int>(dep_pool_.size());
    dep_pool_.push_back(DepLink{dep, -1});
    if (e.dep_tail == -1) {
      e.dep_head = link;
    } else {
      dep_pool_[static_cast<std::size_t>(e.dep_tail)].next = link;
    }
    e.dep_tail = link;
  }

  std::vector<Entry> entries_;
  // Flat per-run stores addressed from entries_ (Entry::obls, dep_head,
  // witness): one pooled array each instead of a vector per entry.
  std::vector<Obl> obl_pool_;
  std::vector<DepLink> dep_pool_;
  std::vector<std::pair<int, int>> witness_pool_;
  // Sat configurations interned by hashed key [b, sigma, (p,l,r)*];
  // sat_entry_ids_ maps the dense interner id to the entry id (top-check
  // entries share entries_, so the two id spaces differ by an offset map).
  SubsetInterner sat_ids_;
  std::vector<int> sat_entry_ids_;
  std::vector<int> sat_key_buf_;
  // FIFO worklist: entries are popped at worklist_head_.
  std::vector<int> worklist_;
  std::size_t worklist_head_ = 0;

  // Pattern store: every rule's TopPattern is split once per run (rules
  // interned by [p, b] in rule_ids_, patterns in rule_patterns_), and every
  // top check's pattern once at setup.
  std::vector<TopPattern> patterns_;
  std::vector<int> pat_states_;
  std::vector<int> pat_labels_;
  std::vector<int> pat_bounds_;
  SubsetInterner rule_ids_;
  std::vector<int> rule_patterns_;

  // Scratch reused across Eval/HedgeSearch calls (they run once per
  // saturation entry evaluation; the search loops must stay
  // allocation-free). Safe because neither reenters itself.
  std::vector<Copy> copies_;
  std::vector<Group> groups_;
  std::vector<int> guesses_;
  std::vector<int> y0_;
  std::vector<int> y_;
  std::vector<Parent> parents_;
  std::vector<int> cand_id_;                  // per copy: its memo id
  std::vector<std::span<const Cand>> cand_;  // per copy: its candidates
  std::vector<std::size_t> idx_;
  SubsetInterner cfg_ids_;
  std::vector<int> cfg_key_;
  std::vector<int> z_buf_;
  std::vector<Obl> single_obl_buf_;
  std::vector<Obl> child_obl_buf_;
  std::vector<Node*> witness_kids_;
  // din_'s MinimalTreeCosts, computed once by the counterexample build.
  std::vector<std::uint64_t> min_costs_;
  std::vector<std::unique_ptr<DfaReachability>> out_reach_;  // per sigma
  // Singleton candidate lists of the current HedgeSearch (see the note in
  // trac.h).
  CandidateMemo memo_;
};

int Engine::AddPattern(const RhsHedge& rhs) {
  TopPattern pat{static_cast<int>(pat_states_.size()), 0,
                 static_cast<int>(pat_bounds_.size())};
  pat_bounds_.push_back(static_cast<int>(pat_labels_.size()));
  for (const RhsNode& n : rhs) {
    if (n.kind == RhsNode::Kind::kLabel) {
      pat_labels_.push_back(n.label);
    } else {
      pat_states_.push_back(n.state);
      ++pat.count;
      pat_bounds_.push_back(static_cast<int>(pat_labels_.size()));
    }
  }
  pat_bounds_.push_back(static_cast<int>(pat_labels_.size()));
  patterns_.push_back(pat);
  return static_cast<int>(patterns_.size()) - 1;
}

int Engine::RulePattern(int p, int b) {
  const int key[2] = {p, b};
  const int iid = rule_ids_.Intern(key);
  if (iid < static_cast<int>(rule_patterns_.size())) {
    return rule_patterns_[static_cast<std::size_t>(iid)];
  }
  const RhsHedge* rhs = t_.rule(p, b);
  const int pat = rhs == nullptr ? -1 : AddPattern(*rhs);
  rule_patterns_.push_back(pat);
  return pat;
}

int Engine::GetSatConfig(int b, int sigma, std::vector<Obl>* obls) {
  if (obls->size() > 1) {
    std::sort(obls->begin(), obls->end());
    obls->erase(std::unique(obls->begin(), obls->end()), obls->end());
  }
  // Contradiction: same transducer state and start, different targets — the
  // output string is a function of t, so no tree can satisfy both.
  for (std::size_t i = 1; i < obls->size(); ++i) {
    if ((*obls)[i].p == (*obls)[i - 1].p && (*obls)[i].l == (*obls)[i - 1].l &&
        (*obls)[i].r != (*obls)[i - 1].r) {
      return -1;
    }
  }
  sat_key_buf_.clear();
  sat_key_buf_.push_back(b);
  sat_key_buf_.push_back(sigma);
  for (const Obl& obl : *obls) {
    sat_key_buf_.push_back(obl.p);
    sat_key_buf_.push_back(obl.l);
    sat_key_buf_.push_back(obl.r);
  }
  int iid = sat_ids_.Intern(sat_key_buf_);
  if (iid < static_cast<int>(sat_entry_ids_.size())) {
    return sat_entry_ids_[static_cast<std::size_t>(iid)];
  }
  int id = static_cast<int>(entries_.size());
  sat_entry_ids_.push_back(id);
  Entry e;
  e.b = b;
  e.sigma = sigma;
  e.obls = Range{static_cast<int>(obl_pool_.size()),
                 static_cast<int>(obls->size())};
  obl_pool_.insert(obl_pool_.end(), obls->begin(), obls->end());
  entries_.push_back(e);
  worklist_.push_back(id);
  ++stats_.configs;
  return id;
}

void Engine::AddGroup(int pattern, int start, int target) {
  const TopPattern& pat = patterns_[static_cast<std::size_t>(pattern)];
  groups_.push_back(
      Group{static_cast<int>(copies_.size()), pattern, target});
  for (int j = 0; j < pat.count; ++j) {
    if (j == 0) {
      copies_.push_back(Copy{PatState(pat, j), start, -1});
    } else {
      copies_.push_back(Copy{PatState(pat, j), -1,
                             static_cast<int>(guesses_.size())});
      guesses_.push_back(0);
    }
  }
}

bool Engine::ExpandSat(int id) {
  const Entry& e = entries_[static_cast<std::size_t>(id)];
  const Dfa& a_sigma = OutDfa(e.sigma);
  for (const Obl& obl : Obls(e)) {
    const int pattern = RulePattern(obl.p, e.b);
    if (pattern < 0) {
      // top(T^p(t)) = epsilon: the obligation holds iff l == r.
      if (obl.l != obl.r) return false;
      continue;
    }
    const TopPattern& pat = patterns_[static_cast<std::size_t>(pattern)];
    if (pat.count == 0) {
      // Constant top string: check it directly.
      if (a_sigma.RunComplete(obl.l, Sep(pat, 0)) != obl.r) return false;
      continue;
    }
    AddGroup(pattern, a_sigma.RunComplete(obl.l, Sep(pat, 0)), obl.r);
  }
  return true;
}

int Engine::Candidates(int id, int c, int sigma, int p, int y) {
  const int mid = memo_.Find(c, p, y);
  if (mid >= 0) return mid;
  // Per-copy candidate end states via singleton configurations: a tree
  // witnessing the joint configuration also witnesses each singleton, so
  // currently-false singletons cannot contribute (and re-evaluation is
  // scheduled for when they flip). This replaces the n_sigma^k enumeration
  // by a product of (typically tiny) sets.
  memo_.Open();
  const int n_sigma = OutDfa(sigma).num_complete_states();
  // Only targets reachable from y in A_sigma can be satisfied.
  const StateSet& zreach = OutReachable(sigma, y);
  for (int z = 0; z < n_sigma; ++z) {
    if (!zreach.Test(z)) continue;
    single_obl_buf_.assign(1, Obl{p, y, z});
    const int sid = GetSatConfig(c, sigma, &single_obl_buf_);
    if (stats_.configs > options_.max_configs) return -1;
    if (sid < 0) continue;
    if (entries_[static_cast<std::size_t>(sid)].status) {
      memo_.Add(Cand{z, sid});
    } else {
      AddDependent(sid, id);
    }
  }
  return memo_.Seal(c, p, y);
}

bool Engine::Accepts(const Dfa& a_sigma, std::span<const int> y) const {
  for (const Group& g : groups_) {
    const TopPattern& pat = patterns_[static_cast<std::size_t>(g.pattern)];
    for (int j = 0; j < pat.count; ++j) {
      const int end = a_sigma.RunComplete(
          y[static_cast<std::size_t>(g.first_copy + j)], Sep(pat, j + 1));
      if (j + 1 < pat.count) {
        // Must equal the guessed start of the next copy in the chain.
        const Copy& next = copies_[static_cast<std::size_t>(g.first_copy + j + 1)];
        if (end != guesses_[static_cast<std::size_t>(next.guess)]) return false;
      } else if (g.target >= 0) {
        if (end != g.target) return false;
      } else {
        // Complement acceptance (top check): the produced string must be
        // REJECTED by A_sigma.
        if (a_sigma.final(end)) return false;
      }
    }
  }
  return true;
}

StatusOr<bool> Engine::HedgeSearch(int id, int b, int sigma) {
  const Dfa& a_sigma = OutDfa(sigma);
  const Dfa& d_in = InDfa(b);
  const int k = static_cast<int>(copies_.size());
  const int n_sigma = a_sigma.num_complete_states();
  const StateSet& inhabited = din_.InhabitedSymbols();

  if (d_in.initial() == Dfa::kDead) return false;

  Budget* budget = options_.budget;
  // The odometer is the innermost loop of the whole engine; a full Check()
  // per tick would dominate it, so polling is amortized through a gate.
  BudgetGate gate(budget);

  // Singleton candidate lists are a pure function of [c, p, y] for the
  // whole call: statuses flip only in Solve, between Eval calls.
  memo_.Clear();
  cand_id_.resize(static_cast<std::size_t>(k));
  cand_.resize(static_cast<std::size_t>(k));
  idx_.resize(static_cast<std::size_t>(k));
  y0_.resize(static_cast<std::size_t>(k));
  z_buf_.resize(static_cast<std::size_t>(k));

  // Product configurations (d, y) are interned by hash; ids are dense and
  // assigned in discovery order, so an id cursor doubles as the BFS queue.
  // The interner and key buffer are member scratch: cleared per guess
  // vector, capacity kept across the ~#entries calls of a run.
  auto intern = [&](int d, std::span<const int> y, Parent par) {
    cfg_key_.clear();
    cfg_key_.push_back(d);
    cfg_key_.insert(cfg_key_.end(), y.begin(), y.end());
    int cfg = cfg_ids_.Intern(cfg_key_);
    if (cfg < static_cast<int>(parents_.size())) return;  // seen before
    parents_.push_back(par);
    ++stats_.product_states;
  };

  // Iterate over all guess vectors (guesses_ starts all-zero).
  while (true) {
    // Product BFS from the initial configuration.
    for (int c = 0; c < k; ++c) {
      const Copy& copy = copies_[static_cast<std::size_t>(c)];
      y0_[static_cast<std::size_t>(c)] =
          copy.start != -1 ? copy.start
                           : guesses_[static_cast<std::size_t>(copy.guess)];
    }
    cfg_ids_.Clear();
    parents_.clear();
    intern(d_in.initial(), y0_, Parent{-1, -1, -1});
    int accept_id = -1;
    for (int pid = 0; pid < cfg_ids_.size(); ++pid) {
      XTC_RETURN_IF_ERROR(BudgetCheck(budget, "TypecheckTrac/HedgeSearch"));
      // Copy out: the interner pool may reallocate as new configurations
      // are minted below.
      const std::span<const int> stored = cfg_ids_.Get(pid);
      const int d = stored[0];
      y_.assign(stored.begin() + 1, stored.end());
      if (d_in.final(d) && Accepts(a_sigma, y_)) {
        accept_id = pid;
        break;
      }
      if (stats_.product_states > options_.max_product_states_per_eval) {
        return ResourceExhaustedError(
            "trac engine exceeded the product-state budget (is the "
            "transducer outside T_trac?)");
      }
      for (int c = 0; c < din_.num_symbols(); ++c) {
        if (!inhabited.Test(c)) continue;
        int d2 = d_in.Step(d, c);
        if (d2 == Dfa::kDead) continue;
        bool dead_copy = false;
        for (int i = 0; i < k && !dead_copy; ++i) {
          const int mid =
              Candidates(id, c, sigma, copies_[static_cast<std::size_t>(i)].state,
                         y_[static_cast<std::size_t>(i)]);
          if (mid < 0) {
            return ResourceExhaustedError(
                "trac engine exceeded the configuration budget (is the "
                "transducer outside T_trac?)");
          }
          cand_id_[static_cast<std::size_t>(i)] = mid;
          dead_copy = memo_.List(mid).empty();
        }
        if (dead_copy) continue;
        // The memo pool is stable from here on: the odometer adds no key.
        for (int i = 0; i < k; ++i) {
          cand_[static_cast<std::size_t>(i)] =
              memo_.List(cand_id_[static_cast<std::size_t>(i)]);
        }
        // Joint enumeration over the candidate product.
        std::fill(idx_.begin(), idx_.end(), 0);
        while (true) {
          XTC_RETURN_IF_ERROR(gate.Poll("TypecheckTrac/odometer"));
          std::vector<Obl>& child = child_obl_buf_;
          child.clear();
          for (int i = 0; i < k; ++i) {
            const Cand& cand = cand_[static_cast<std::size_t>(i)]
                                    [idx_[static_cast<std::size_t>(i)]];
            z_buf_[static_cast<std::size_t>(i)] = cand.z;
            child.push_back(Obl{copies_[static_cast<std::size_t>(i)].state,
                                y_[static_cast<std::size_t>(i)], cand.z});
          }
          // One copy: the joint configuration is the (true) singleton.
          const int cfg =
              k == 1 ? cand_[0][idx_[0]].sid : GetSatConfig(c, sigma, &child);
          if (stats_.configs > options_.max_configs) {
            return ResourceExhaustedError(
                "trac engine exceeded the configuration budget (is the "
                "transducer outside T_trac?)");
          }
          if (cfg >= 0) {
            if (entries_[static_cast<std::size_t>(cfg)].status) {
              intern(d2, z_buf_, Parent{pid, c, cfg});
            } else {
              // Re-evaluate this entry when the child flips.
              AddDependent(cfg, id);
            }
          }
          // Odometer over the candidate indices.
          int pos = 0;
          while (pos < k) {
            if (++idx_[static_cast<std::size_t>(pos)] <
                cand_[static_cast<std::size_t>(pos)].size()) {
              break;
            }
            idx_[static_cast<std::size_t>(pos)] = 0;
            ++pos;
          }
          if (pos == k) break;
        }
      }
    }
    if (accept_id != -1) {
      // Reconstruct the accepted child sequence.
      const int off = static_cast<int>(witness_pool_.size());
      for (int cur = accept_id;
           parents_[static_cast<std::size_t>(cur)].prev != -1;
           cur = parents_[static_cast<std::size_t>(cur)].prev) {
        witness_pool_.emplace_back(
            parents_[static_cast<std::size_t>(cur)].symbol,
            parents_[static_cast<std::size_t>(cur)].child_cfg);
      }
      std::reverse(witness_pool_.begin() + off, witness_pool_.end());
      Entry& e = entries_[static_cast<std::size_t>(id)];
      e.witness = Range{off, static_cast<int>(witness_pool_.size()) - off};
      e.has_witness = true;
      return true;
    }
    // Next guess vector.
    std::size_t pos = 0;
    while (pos < guesses_.size()) {
      if (++guesses_[pos] < n_sigma) break;
      guesses_[pos] = 0;
      ++pos;
    }
    if (pos == guesses_.size()) return false;
  }
}

StatusOr<bool> Engine::Eval(int id) {
  ++stats_.evaluations;
  // Copy the immutable fields: entries_ may reallocate below.
  const Entry& e = entries_[static_cast<std::size_t>(id)];
  const bool is_top = e.is_top;
  const int b = e.b;
  const int sigma = e.sigma;
  const int top_pattern = e.pattern;
  copies_.clear();
  groups_.clear();
  guesses_.clear();
  if (is_top) {
    const TopPattern& pat = patterns_[static_cast<std::size_t>(top_pattern)];
    const Dfa& a_sigma = OutDfa(sigma);
    if (pat.count == 0) {
      return !a_sigma.Accepts(Sep(pat, 0));
    }
    AddGroup(top_pattern, a_sigma.RunComplete(a_sigma.initial(), Sep(pat, 0)),
             /*target=*/-1);  // complement acceptance
    return HedgeSearch(id, b, sigma);
  }
  if (!ExpandSat(id)) return false;
  if (copies_.empty()) {
    return din_.InhabitedSymbols().Test(b);
  }
  return HedgeSearch(id, b, sigma);
}

Status Engine::Solve() {
  while (worklist_head_ < worklist_.size()) {
    XTC_RETURN_IF_ERROR(BudgetCheck(options_.budget, "TypecheckTrac/Solve"));
    int id = worklist_[worklist_head_++];
    entries_[static_cast<std::size_t>(id)].queued = false;
    if (entries_[static_cast<std::size_t>(id)].status) continue;
    StatusOr<bool> v = Eval(id);
    if (!v.ok()) return v.status();
    if (*v) {
      Entry& e = entries_[static_cast<std::size_t>(id)];
      e.status = true;
      for (int link = e.dep_head; link != -1;
           link = dep_pool_[static_cast<std::size_t>(link)].next) {
        Entry& dep =
            entries_[static_cast<std::size_t>(
                dep_pool_[static_cast<std::size_t>(link)].dep)];
        if (!dep.queued && !dep.status) {
          dep.queued = true;
          worklist_.push_back(dep_pool_[static_cast<std::size_t>(link)].dep);
        }
      }
    }
  }
  return Status::Ok();
}

Node* Engine::BuildConfigWitness(int id, TreeBuilder* builder,
                                 std::size_t* node_budget) {
  if (*node_budget == 0) return nullptr;
  --*node_budget;
  const Entry& e = entries_[static_cast<std::size_t>(id)];
  XTC_CHECK(e.status);
  const int b = e.b;
  if (!e.has_witness) {
    // Witness construction is best-effort under a governor: exhaustion here
    // degrades to "no counterexample", not to a failed run.
    StatusOr<Node*> leaf =
        MinimalValidTree(din_, b, min_costs_, builder, options_.budget);
    return leaf.ok() ? *leaf : nullptr;
  }
  // Children are collected on one shared stack: this call's kids sit above
  // `base` once its recursive calls have popped theirs.
  const std::size_t base = witness_kids_.size();
  for (const auto& [symbol, child_cfg] : Witness(e)) {
    Node* child = BuildConfigWitness(child_cfg, builder, node_budget);
    if (child == nullptr) {
      witness_kids_.resize(base);
      return nullptr;
    }
    witness_kids_.push_back(child);
  }
  Node* node = builder->Make(
      b, std::span<Node* const>(witness_kids_.data() + base,
                                witness_kids_.size() - base));
  witness_kids_.resize(base);
  return node;
}

StatusOr<TypecheckResult> Engine::Run() {
  XTC_CHECK_MSG(!t_.HasSelectors(),
                "compile selectors before typechecking (Theorems 23/29)");
  XTC_CHECK(t_.alphabet() == din_.alphabet() &&
            t_.alphabet() == dout_.alphabet());
  WallTimer timer;
  TypecheckResult result;
  result.arena = std::make_shared<Arena>();
  TreeBuilder builder(result.arena.get());
  // Charge witness-tree allocations against the caller's budget for the
  // duration of the run only — the arena escapes inside the result.
  ArenaBudgetScope arena_scope(result.arena, options_.budget);
  auto finalize = [&] {
    result.stats = stats_;
    if (options_.budget != nullptr) {
      result.stats.budget_checkpoints = options_.budget->checkpoints();
      result.stats.budget_bytes = options_.budget->bytes_charged();
      result.stats.elapsed_ms = options_.budget->elapsed_ms();
      result.stats.exhaustion = options_.budget->cause();
    } else {
      result.stats.elapsed_ms = timer.elapsed_ms();
    }
  };

  // Vacuous: empty input language.
  if (din_.LanguageEmpty()) {
    result.typechecks = true;
    finalize();
    return result;
  }

  // Root checks: T(t) is the single tree produced by rhs(q0, s_in); its
  // root label must be the output start symbol, and it must exist at all.
  const RhsHedge* root_rhs = t_.rule(t_.initial(), din_.start());
  if (root_rhs == nullptr || root_rhs->size() != 1 ||
      (*root_rhs)[0].kind != RhsNode::Kind::kLabel ||
      (*root_rhs)[0].label != dout_.start()) {
    result.typechecks = false;
    if (options_.want_counterexample) {
      StatusOr<Node*> tree =
          MinimalValidTree(din_, din_.start(), &builder, options_.budget);
      if (tree.ok()) result.counterexample = *tree;
    }
    finalize();
    return result;
  }

  // One top check per Sigma-labelled node of every reachable rule template.
  struct TopRef {
    int entry;
    int q;
    int a;
  };
  std::vector<TopRef> tops;
  std::vector<const RhsNode*> stack;
  for (const auto& [q, a] : reach_.pairs()) {
    const RhsHedge* rhs = t_.rule(q, a);
    if (rhs == nullptr) continue;
    // Walk all label nodes of the template.
    for (const RhsNode& n : *rhs) stack.push_back(&n);
    while (!stack.empty()) {
      const RhsNode* u = stack.back();
      stack.pop_back();
      if (u->kind != RhsNode::Kind::kLabel) continue;
      for (const RhsNode& c : u->children) stack.push_back(&c);
      Entry e;
      e.is_top = true;
      e.b = a;
      e.sigma = u->label;
      e.pattern = AddPattern(u->children);
      int id = static_cast<int>(entries_.size());
      entries_.push_back(e);
      worklist_.push_back(id);
      ++stats_.configs;
      tops.push_back(TopRef{id, q, a});
    }
  }

  Status solve = Solve();
  if (!solve.ok()) return solve;

  result.typechecks = true;
  for (const TopRef& top : tops) {
    const Entry& e = entries_[static_cast<std::size_t>(top.entry)];
    if (!e.status) continue;
    result.typechecks = false;
    if (!options_.want_counterexample) break;
    // One MinimalTreeCosts fixpoint serves every smallest tree below.
    StatusOr<std::vector<std::uint64_t>> costs =
        MinimalTreeCosts(din_, options_.budget);
    if (!costs.ok()) break;
    min_costs_ = *std::move(costs);
    // Build the violating subtree rooted at the input node (q, a).
    std::vector<Node*> kids;
    bool ok = true;
    if (e.has_witness) {
      std::size_t budget = std::size_t{1} << 20;
      for (const auto& [symbol, child_cfg] : Witness(e)) {
        Node* child = BuildConfigWitness(child_cfg, &builder, &budget);
        if (child == nullptr) {
          ok = false;
          break;
        }
        kids.push_back(child);
      }
    } else {
      std::optional<std::vector<int>> word = din_.ShortestUsableWord(top.a);
      XTC_CHECK(word.has_value());
      for (int b : *word) {
        StatusOr<Node*> kid =
            MinimalValidTree(din_, b, min_costs_, &builder, options_.budget);
        if (!kid.ok()) {
          ok = false;
          break;
        }
        kids.push_back(*kid);
      }
    }
    if (!ok) break;
    Node* subtree = builder.Make(top.a, kids);
    result.counterexample =
        reach_.EmbedWitness(top.q, top.a, subtree, min_costs_, &builder);
    break;
  }
  finalize();
  return result;
}

}  // namespace

StatusOr<TypecheckResult> TypecheckTrac(const Transducer& t, const Dtd& din,
                                        const Dtd& dout,
                                        const TypecheckOptions& options) {
  Engine engine(t, din, dout, options);
  return engine.Run();
}

}  // namespace xtc
