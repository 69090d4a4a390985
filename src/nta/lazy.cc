#include "src/nta/lazy.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/base/interner.h"
#include "src/base/logging.h"
#include "src/base/state_set.h"
#include "src/nta/analysis.h"
#include "src/nta/determinize.h"
#include "src/nta/horizontal_space.h"
#include "src/nta/product.h"

namespace xtc {
namespace {

// The frontier engine. One instance per query, single-threaded (it owns
// SubsetInterners; see src/base/README.md).
//
// A *configuration* is a tuple with one coordinate per spec component: the
// root state of one run for an existential component, the exact reachable
// state subset (an interned det-state id) for a determinized component. A
// tree t reaches config c iff every existential coordinate is reachable by
// some run of its component on t and every det coordinate equals det(t) of
// its component — so configs are exactly the product states bottom-up
// reachability would visit, discovered in dependency order.
//
// Per symbol a, a *joint h-state* is a tuple of horizontal positions: a
// single global NFA state (HorizontalSpace embedding) per existential
// component, an interned subset of global states per determinized one.
// Stepping a joint h-state by a config advances every coordinate over the
// same child; a joint h-state whose existential coordinates are all final
// mints the parent config (owner states / TargetSubset). Each h-state
// keeps a cursor into the global config list so the saturation loop only
// expands (h, config) pairs once, and a back-pointer (previous h, config
// consumed), from which a witness tree for each minted config is assembled
// in the SharedForest.
class LazyEngine {
 public:
  LazyEngine(const LazyProductSpec& spec, SharedForest* forest,
             const LazyOptions& options)
      : spec_(spec), forest_(forest), options_(options) {
    const auto& comps = spec.components();
    num_components_ = static_cast<int>(comps.size());
    num_symbols_ = spec.num_symbols();
    det_slot_.assign(comps.size(), -1);
    for (int i = 0; i < num_components_; ++i) {
      XTC_CHECK_EQ(comps[static_cast<std::size_t>(i)].nta->num_symbols(),
                   num_symbols_);
      if (comps[static_cast<std::size_t>(i)].determinize) {
        det_slot_[static_cast<std::size_t>(i)] =
            static_cast<int>(det_comps_.size());
        det_comps_.emplace_back();
        det_comps_.back().component = i;
      }
    }
    for (const DetComponent& dc : det_comps_) {
      letter_.EnsureUniverse(
          comps[static_cast<std::size_t>(dc.component)].nta->num_states());
    }
    symbols_.resize(static_cast<std::size_t>(num_symbols_));
    for (int a = 0; a < num_symbols_; ++a) {
      SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
      sym.spaces.reserve(comps.size());
      for (int i = 0; i < num_components_; ++i) {
        sym.spaces.push_back(HorizontalSpace::Build(
            *comps[static_cast<std::size_t>(i)].nta, a));
      }
      sym.det.resize(det_comps_.size());
    }
  }

  StatusOr<EmptinessOutcome> Run() {
    Preload();
    for (int a = 0; a < num_symbols_ && found_ < 0; ++a) {
      XTC_RETURN_IF_ERROR(SeedSymbol(a));
    }
    bool changed = true;
    while (changed && found_ < 0) {
      changed = false;
      for (int a = 0; a < num_symbols_ && found_ < 0; ++a) {
        SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
        // h_prev grows while we iterate: new h-states minted this pass are
        // expanded in this same pass.
        for (int hi = 0;
             hi < static_cast<int>(sym.h_prev.size()) && found_ < 0; ++hi) {
          while (sym.h_cursor[static_cast<std::size_t>(hi)] <
                     static_cast<int>(cfg_accepting_.size()) &&
                 found_ < 0) {
            const int c = sym.h_cursor[static_cast<std::size_t>(hi)]++;
            XTC_RETURN_IF_ERROR(BudgetCheck(options_.budget, "LazyEmptiness"));
            ++stats_.steps;
            XTC_RETURN_IF_ERROR(StepJoint(a, hi, c));
            changed = true;
          }
        }
      }
    }

    EmptinessOutcome out;
    out.empty = found_ < 0;
    if (found_ >= 0 && forest_ != nullptr) {
      out.witness = cfg_witness_[static_cast<std::size_t>(found_)];
    }
    stats_.early_exit = found_ >= 0;
    for (const DetComponent& dc : det_comps_) {
      stats_.det_states += static_cast<std::uint64_t>(dc.ids.size());
    }
    out.stats = stats_;
    if (options_.export_snapshot != nullptr) {
      // Export only on clean completion (this line is unreachable on any
      // budget/cap error path), so snapshots are always trustworthy and a
      // failed retry never observes partial tables.
      LazySnapshot snap;
      snap.det_tables.resize(det_comps_.size());
      for (std::size_t d = 0; d < det_comps_.size(); ++d) {
        LazySnapshot::DetTable& table = snap.det_tables[d];
        for (int id = 0; id < det_comps_[d].ids.size(); ++id) {
          const std::span<const int> subset = det_comps_[d].ids.Get(id);
          table.pool.insert(table.pool.end(), subset.begin(), subset.end());
          table.offsets.push_back(table.pool.size());
        }
      }
      snap.complete = true;
      snap.empty = out.empty;
      *options_.export_snapshot = std::move(snap);
    }
    return out;
  }

 private:
  // Interned state subsets of one determinized component's Q, shared across
  // symbols; ids are the det coordinates of configs.
  struct DetComponent {
    int component = -1;  ///< index into spec components
    SubsetInterner ids;  ///< subsets of the component's Q
    std::vector<bool> accepting;  ///< id -> acceptance after polarity flip
  };

  // Per (symbol, determinized component): interned subsets of the symbol's
  // global horizontal space, with a memoized deterministic step relation.
  struct DetH {
    SubsetInterner ids;        ///< subsets of global ids
    std::vector<int> target;   ///< hsub -> det-state id of TargetSubset (-1
                               ///< until first needed)
    SubsetInterner memo_keys;  ///< {hsub, det-state letter} pairs
    std::vector<int> memo;     ///< pair id -> successor hsub
  };

  struct SymbolData {
    std::vector<HorizontalSpace> spaces;  ///< per component
    std::vector<DetH> det;                ///< per det slot
    SubsetInterner h_ids;                 ///< joint h tuples (k ints)
    std::vector<int> h_prev;              ///< back-pointer h (-1 = initial)
    std::vector<int> h_letter;            ///< config consumed (-1 = initial)
    std::vector<int> h_cursor;            ///< next config id to step by
  };

  void Preload() {
    if (options_.resume == nullptr ||
        options_.resume->det_tables.size() != det_comps_.size()) {
      return;
    }
    stats_.resumed = true;
    for (std::size_t d = 0; d < det_comps_.size(); ++d) {
      const LazySnapshot::DetTable& table = options_.resume->det_tables[d];
      const Nta* nta =
          spec_.components()[static_cast<std::size_t>(det_comps_[d].component)]
              .nta;
      for (std::size_t i = 0; i + 1 < table.offsets.size(); ++i) {
        const std::span<const int> subset(table.pool.data() + table.offsets[i],
                                          table.offsets[i + 1] -
                                              table.offsets[i]);
        bool valid = true;
        for (int q : subset) valid = valid && q >= 0 && q < nta->num_states();
        if (valid) InternDetState(static_cast<int>(d), subset);
      }
    }
  }

  int InternDetState(int d, std::span<const int> subset) {
    DetComponent& dc = det_comps_[static_cast<std::size_t>(d)];
    const int id = dc.ids.Intern(subset);
    if (id < static_cast<int>(dc.accepting.size())) return id;
    const LazyComponent& comp =
        spec_.components()[static_cast<std::size_t>(dc.component)];
    bool any_final = false;
    for (int q : subset) any_final = any_final || comp.nta->final(q);
    dc.accepting.push_back(comp.complement ? !any_final : any_final);
    return id;
  }

  int InternDetH(int a, int d, std::span<const int> subset) {
    DetH& dh = symbols_[static_cast<std::size_t>(a)]
                   .det[static_cast<std::size_t>(d)];
    const int id = dh.ids.Intern(subset);
    if (id == static_cast<int>(dh.target.size())) dh.target.push_back(-1);
    return id;
  }

  // The det-state the subset-of-globals `hsub` emits (memoized).
  int TargetOf(int a, int d, int hsub) {
    SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
    DetH& dh = sym.det[static_cast<std::size_t>(d)];
    if (dh.target[static_cast<std::size_t>(hsub)] < 0) {
      const int comp = det_comps_[static_cast<std::size_t>(d)].component;
      dh.target[static_cast<std::size_t>(hsub)] = InternDetState(
          d, TargetSubset(sym.spaces[static_cast<std::size_t>(comp)],
                          dh.ids.Get(hsub)));
    }
    return dh.target[static_cast<std::size_t>(hsub)];
  }

  // Deterministic subset step of a det coordinate by a det-state letter:
  // marks the letter's members in `letter_` for StepH's membership tests.
  StatusOr<int> StepDet(int a, int d, int hsub, int det_letter) {
    SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
    DetH& dh = sym.det[static_cast<std::size_t>(d)];
    const int pair_key[2] = {hsub, det_letter};
    const int pid = dh.memo_keys.Intern(pair_key);
    if (pid < static_cast<int>(dh.memo.size())) return dh.memo[pid];
    const DetComponent& dc = det_comps_[static_cast<std::size_t>(d)];
    const HorizontalSpace& sp =
        sym.spaces[static_cast<std::size_t>(dc.component)];
    for (const int q : dc.ids.Get(det_letter)) letter_.Add(q);
    StepH(sp, dh.ids.Get(hsub), letter_, &scratch_, &step_buf_);
    letter_.Clear();
    const int result = InternDetH(a, d, step_buf_);
    dh.memo.push_back(result);
    return result;
  }

  // Interns a joint h tuple, recording back-pointers and minting the parent
  // config when every existential coordinate is horizontally final.
  Status InternJoint(int a, std::span<const int> key, int prev, int letter) {
    SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
    const int id = sym.h_ids.Intern(key);
    if (id < static_cast<int>(sym.h_prev.size())) return Status::Ok();
    if (total_h_ >= options_.max_h_configs) {
      return ResourceExhaustedError(
          "lazy emptiness exceeded max_h_configs horizontal states");
    }
    ++total_h_;
    ++stats_.h_configs;
    sym.h_prev.push_back(prev);
    sym.h_letter.push_back(letter);
    sym.h_cursor.push_back(0);
    return TryEmit(a, id);
  }

  Status TryEmit(int a, int hid) {
    SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
    // Copy out: interners below may grow their pools.
    const std::span<const int> span = sym.h_ids.Get(hid);
    const std::vector<int> h(span.begin(), span.end());
    std::vector<int> key(static_cast<std::size_t>(num_components_));
    for (int i = 0; i < num_components_; ++i) {
      if (det_slot_[static_cast<std::size_t>(i)] >= 0) continue;
      const HorizontalSpace& sp = sym.spaces[static_cast<std::size_t>(i)];
      const int g = h[static_cast<std::size_t>(i)];
      if (!sp.final_mask.Test(g)) return Status::Ok();
      key[static_cast<std::size_t>(i)] = sp.owner[static_cast<std::size_t>(g)];
    }
    for (int i = 0; i < num_components_; ++i) {
      const int d = det_slot_[static_cast<std::size_t>(i)];
      if (d >= 0) {
        key[static_cast<std::size_t>(i)] =
            TargetOf(a, d, h[static_cast<std::size_t>(i)]);
      }
    }
    return MintConfig(a, hid, key);
  }

  Status MintConfig(int a, int hid, std::span<const int> key) {
    const int id = cfg_ids_.Intern(key);
    if (id < static_cast<int>(cfg_accepting_.size())) return Status::Ok();
    if (static_cast<int>(cfg_accepting_.size()) >= options_.max_configs) {
      return ResourceExhaustedError(
          "lazy emptiness exceeded max_configs product configurations");
    }
    ++stats_.configs;
    bool accepting = true;
    for (int i = 0; i < num_components_ && accepting; ++i) {
      const int d = det_slot_[static_cast<std::size_t>(i)];
      const int coord = key[static_cast<std::size_t>(i)];
      accepting =
          d < 0 ? spec_.components()[static_cast<std::size_t>(i)].nta->final(
                      coord)
                : static_cast<bool>(
                      det_comps_[static_cast<std::size_t>(d)]
                          .accepting[static_cast<std::size_t>(coord)]);
    }
    cfg_accepting_.push_back(accepting);
    if (forest_ != nullptr) {
      // Children are the configs consumed along the back-pointer chain (in
      // reverse); their witnesses were recorded when they were minted.
      SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
      std::vector<int> children;
      for (int cur = hid; sym.h_prev[static_cast<std::size_t>(cur)] >= 0;
           cur = sym.h_prev[static_cast<std::size_t>(cur)]) {
        children.push_back(
            cfg_witness_[static_cast<std::size_t>(
                sym.h_letter[static_cast<std::size_t>(cur)])]);
      }
      std::reverse(children.begin(), children.end());
      cfg_witness_.push_back(forest_->Make(a, children));
    } else {
      cfg_witness_.push_back(-1);
    }
    if (accepting && found_ < 0) found_ = id;
    return Status::Ok();
  }

  // Cross product of the existential successor choices; det coordinates in
  // `key` are already fixed.
  Status EnumerateJoint(int a, std::vector<int>* key,
                        const std::vector<int>& ex_slots,
                        const std::vector<std::vector<int>>& options,
                        int prev, int letter) {
    std::vector<std::size_t> idx(ex_slots.size(), 0);
    while (true) {
      for (std::size_t j = 0; j < ex_slots.size(); ++j) {
        (*key)[static_cast<std::size_t>(ex_slots[j])] = options[j][idx[j]];
      }
      XTC_RETURN_IF_ERROR(InternJoint(a, *key, prev, letter));
      if (found_ >= 0) return Status::Ok();
      std::size_t j = 0;
      for (; j < idx.size(); ++j) {
        if (++idx[j] < options[j].size()) break;
        idx[j] = 0;
      }
      if (j == idx.size()) return Status::Ok();
    }
  }

  Status SeedSymbol(int a) {
    SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
    std::vector<int> key(static_cast<std::size_t>(num_components_), -1);
    std::vector<std::vector<int>> options;
    std::vector<int> ex_slots;
    for (int i = 0; i < num_components_; ++i) {
      const int d = det_slot_[static_cast<std::size_t>(i)];
      const HorizontalSpace& sp = sym.spaces[static_cast<std::size_t>(i)];
      if (d >= 0) {
        key[static_cast<std::size_t>(i)] = InternDetH(a, d, sp.initials);
        continue;
      }
      if (sp.initials.empty()) return Status::Ok();  // no run roots at `a`
      ex_slots.push_back(i);
      options.push_back(sp.initials);
    }
    return EnumerateJoint(a, &key, ex_slots, options, -1, -1);
  }

  Status StepJoint(int a, int hi, int c) {
    SymbolData& sym = symbols_[static_cast<std::size_t>(a)];
    // Copy out: successor interning moves the pools under these spans.
    const std::span<const int> hspan = sym.h_ids.Get(hi);
    const std::vector<int> h(hspan.begin(), hspan.end());
    const std::span<const int> cspan = cfg_ids_.Get(c);
    const std::vector<int> cfg(cspan.begin(), cspan.end());

    std::vector<int> key(static_cast<std::size_t>(num_components_), -1);
    std::vector<std::vector<int>> options;
    std::vector<int> ex_slots;
    for (int i = 0; i < num_components_; ++i) {
      const int d = det_slot_[static_cast<std::size_t>(i)];
      if (d >= 0) {
        XTC_ASSIGN_OR_RETURN(key[static_cast<std::size_t>(i)],
                             StepDet(a, d, h[static_cast<std::size_t>(i)],
                                     cfg[static_cast<std::size_t>(i)]));
        continue;
      }
      const HorizontalSpace& sp = sym.spaces[static_cast<std::size_t>(i)];
      std::vector<int> succ;
      sp.ForEachEdge(h[static_cast<std::size_t>(i)], [&](int symq, int to) {
        if (symq == cfg[static_cast<std::size_t>(i)]) succ.push_back(to);
      });
      if (succ.empty()) return Status::Ok();  // letter can't extend this run
      std::sort(succ.begin(), succ.end());
      succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
      ex_slots.push_back(i);
      options.push_back(std::move(succ));
    }
    return EnumerateJoint(a, &key, ex_slots, options, hi, c);
  }

  const LazyProductSpec& spec_;
  SharedForest* forest_;
  const LazyOptions& options_;
  int num_components_ = 0;
  int num_symbols_ = 0;
  std::vector<int> det_slot_;  ///< component -> det slot, -1 if existential
  std::vector<DetComponent> det_comps_;
  std::vector<SymbolData> symbols_;
  SubsetInterner cfg_ids_;  ///< global config tuples (k ints)
  std::vector<bool> cfg_accepting_;
  std::vector<int> cfg_witness_;  ///< forest id per config, -1 w/o forest
  ScratchSet letter_;          ///< StepDet letter members
  ScratchSet scratch_;         ///< StepDet successor accumulator
  std::vector<int> step_buf_;  ///< reused ExtractSortedAndClear target
  int total_h_ = 0;
  int found_ = -1;  ///< first accepting config, -1 while none
  LazyStats stats_;
};

// The last intersection of the eager fold, decided without building it:
// Fig. A.1's reachability fixpoint over the product states of `a` and `b`.
// Product state (qa, qb) is reached once ha × hb accepts a word over
// reached states, which a breadth-first search over pairs of horizontal
// states decides, reading the edges out of a pair as |ea|·|eb| edge pairs;
// nothing of the product outlives the search. Stops at the first reached
// state that is final in both. With a forest, every reached state keeps
// the tree its search found (a shortest child word), and the accepting
// state's tree is the witness.
Status IntersectionEmptiness(const Nta& a, const Nta& b, SharedForest* forest,
                             Budget* budget, EmptinessOutcome* out) {
  const int nb = b.num_states();
  const std::int64_t states = static_cast<std::int64_t>(a.num_states()) * nb;
  if (states > std::numeric_limits<int>::max()) {
    return ResourceExhaustedError(
        "EagerEmptiness: product state count overflows");
  }
  XTC_RETURN_IF_ERROR(BudgetCheck(budget, "EagerEmptiness"));
  // b's transitions by symbol: each of a's transitions pairs with these.
  std::vector<std::vector<std::pair<int, const Nfa*>>> by_symbol(
      static_cast<std::size_t>(b.num_symbols()));
  for (const auto& [key, h] : b.transitions()) {
    by_symbol[static_cast<std::size_t>(key.second)].emplace_back(key.first,
                                                                 &h);
  }
  StateSet reached(static_cast<int>(states));
  std::vector<int> tree_of;  // forest id per reached product state
  if (forest != nullptr) tree_of.assign(static_cast<std::size_t>(states), -1);
  // Search scratch over pairs of horizontal states; a pair is visited in
  // the current search iff its stamp equals `search`.
  std::vector<std::uint32_t> stamp;
  std::vector<int> parent;  // the pair a visited pair was reached from
  std::vector<int> via;     // and the product state read on that edge
  std::vector<int> queue;
  std::vector<int> word;
  std::uint32_t search = 0;
  out->empty = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [key, ha] : a.transitions()) {
      const auto [qa, symbol] = key;
      for (const auto& [qb, hb_ptr] :
           by_symbol[static_cast<std::size_t>(symbol)]) {
        const int q = qa * nb + qb;
        if (reached.Test(q)) continue;
        XTC_RETURN_IF_ERROR(BudgetCheck(budget, "EagerEmptiness"));
        const Nfa& hb = *hb_ptr;
        const int mb = hb.num_states();
        const std::size_t pairs =
            static_cast<std::size_t>(ha.num_states()) * mb;
        if (stamp.size() < pairs) {
          stamp.resize(pairs, 0);
          parent.resize(pairs);
          via.resize(pairs);
        }
        if (++search == 0) {
          std::fill(stamp.begin(), stamp.end(), 0);
          search = 1;
        }
        queue.clear();
        for (int sa = 0; sa < ha.num_states(); ++sa) {
          if (!ha.initial(sa)) continue;
          for (int sb = 0; sb < mb; ++sb) {
            if (!hb.initial(sb)) continue;
            const int p = sa * mb + sb;
            stamp[p] = search;
            parent[p] = -1;
            queue.push_back(p);
          }
        }
        int accepting = -1;
        for (std::size_t head = 0; head < queue.size(); ++head) {
          XTC_RETURN_IF_ERROR(BudgetCheck(budget, "EagerEmptiness"));
          const int p = queue[head];
          const int sa = p / mb;
          const int sb = p % mb;
          if (ha.final(sa) && hb.final(sb)) {
            accepting = p;
            break;
          }
          ++out->stats.h_configs;
          for (const auto& [ca, ta] : ha.Edges(sa)) {
            for (const auto& [cb, tb] : hb.Edges(sb)) {
              ++out->stats.steps;
              const int t = ta * mb + tb;
              const int child = ca * nb + cb;
              if (stamp[t] == search || !reached.Test(child)) continue;
              stamp[t] = search;
              parent[t] = p;
              via[t] = child;
              queue.push_back(t);
            }
          }
        }
        if (accepting < 0) continue;
        if (forest != nullptr) {
          word.clear();
          for (int p = accepting; parent[p] >= 0; p = parent[p]) {
            word.push_back(tree_of[static_cast<std::size_t>(via[p])]);
          }
          std::reverse(word.begin(), word.end());
          tree_of[static_cast<std::size_t>(q)] = forest->Make(symbol, word);
        }
        reached.Set(q);
        ++out->stats.configs;
        changed = true;
        if (a.final(qa) && b.final(qb)) {
          out->empty = false;
          if (forest != nullptr) {
            out->witness = tree_of[static_cast<std::size_t>(q)];
          }
          return Status::Ok();
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace

std::size_t LazySnapshot::ApproxBytes() const {
  std::size_t bytes = sizeof(LazySnapshot);
  for (const DetTable& table : det_tables) {
    bytes += sizeof(DetTable) + table.pool.capacity() * sizeof(int) +
             table.offsets.capacity() * sizeof(std::size_t);
  }
  return bytes;
}

StatusOr<EmptinessOutcome> LazyEmptiness(const LazyProductSpec& spec,
                                         SharedForest* forest,
                                         const LazyOptions& options) {
  if (spec.components().empty()) {
    return InvalidArgumentError("empty emptiness product spec");
  }
  if (options.resume != nullptr && options.resume->complete) {
    // The snapshot's verdict is final; only a witness request for a
    // non-empty product needs a (warm-started) re-exploration.
    const bool need_witness = forest != nullptr && !options.resume->empty;
    if (!need_witness) {
      EmptinessOutcome out;
      out.empty = options.resume->empty;
      out.stats.resumed = true;
      if (options.export_snapshot != nullptr) {
        *options.export_snapshot = *options.resume;
      }
      return out;
    }
  }
  LazyEngine engine(spec, forest, options);
  return engine.Run();
}

StatusOr<EmptinessOutcome> EagerEmptiness(const LazyProductSpec& spec,
                                          SharedForest* forest,
                                          const LazyOptions& options) {
  if (spec.components().empty()) {
    return InvalidArgumentError("empty emptiness product spec");
  }
  // Existential components are read in place; only the determinized ones
  // and the running product are built.
  const auto& comps = spec.components();
  std::vector<Nta> built;
  built.reserve(comps.size());  // `factors` points into it
  std::vector<const Nta*> factors;
  for (const LazyComponent& comp : comps) {
    if (!comp.determinize) {
      factors.push_back(comp.nta);
      continue;
    }
    XTC_ASSIGN_OR_RETURN(
        Nta det,
        DeterminizeToDtac(*comp.nta, options.max_configs, options.budget));
    built.push_back(comp.complement ? ComplementedDtac(det) : std::move(det));
    factors.push_back(&built.back());
  }
  // Fold every factor but the last into a built product; the last
  // intersection is explored, not built.
  std::optional<Nta> folded;
  const Nta* product = factors.front();
  for (std::size_t i = 1; i + 1 < factors.size(); ++i) {
    XTC_ASSIGN_OR_RETURN(Nta next,
                         Intersect(*product, *factors[i], options.budget));
    folded = std::move(next);
    product = &*folded;
  }
  EmptinessOutcome out;
  if (factors.size() > 1) {
    XTC_RETURN_IF_ERROR(IntersectionEmptiness(*product, *factors.back(), forest,
                                              options.budget, &out));
  } else if (forest != nullptr) {
    XTC_ASSIGN_OR_RETURN(
        std::optional<int> witness,
        WitnessTree(*product, forest, nullptr, options.budget));
    out.empty = !witness.has_value();
    out.witness = witness.value_or(-1);
  } else {
    XTC_ASSIGN_OR_RETURN(out.empty, IsEmptyLanguage(*product, options.budget));
  }
  return out;
}

}  // namespace xtc
