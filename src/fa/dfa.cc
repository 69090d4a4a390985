#include "src/fa/dfa.h"

#include <algorithm>
#include <deque>

#include "src/base/interner.h"
#include "src/base/logging.h"

namespace xtc {

int Dfa::AddState(bool final) {
  const int id = num_states();
  // The sink stays last: its row of kDead becomes the new state's, and a
  // fresh one is appended.
  final_.insert(final_.end() - 1, final);
  trans_.resize(trans_.size() + static_cast<std::size_t>(num_symbols_), kDead);
  return id;
}

void Dfa::SetFinal(int state, bool final) {
  XTC_CHECK(state >= 0 && state < num_states());
  final_[state] = final;
}

void Dfa::SetTransition(int from, int symbol, int to) {
  XTC_CHECK(from >= 0 && from < num_states());
  XTC_CHECK(symbol >= 0 && symbol < num_symbols_);
  XTC_CHECK(to >= kDead && to < num_states());
  int& t = trans_[Index(from, symbol)];
  if (t == kDead) ++defined_;
  if (to == kDead) --defined_;
  t = to;
}

int Dfa::Step(int state, int symbol) const {
  if (state == kDead) return kDead;
  XTC_CHECK(state >= 0 && state < num_states());
  XTC_CHECK(symbol >= 0 && symbol < num_symbols_);
  return trans_[Index(state, symbol)];
}

int Dfa::Run(int state, std::span<const int> word) const {
  for (int sym : word) {
    if (state == kDead) return kDead;
    state = Step(state, sym);
  }
  return state;
}

int Dfa::StepComplete(int state, int symbol) const {
  XTC_CHECK(state >= 0 && state <= sink());
  XTC_CHECK(symbol >= 0 && symbol < num_symbols_);
  const int t = trans_[Index(state, symbol)];
  return t == kDead ? sink() : t;
}

int Dfa::RunComplete(int state, std::span<const int> word) const {
  for (int sym : word) state = StepComplete(state, sym);
  return state;
}

bool Dfa::Accepts(std::span<const int> word) const {
  int s = Run(initial_, word);
  return s != kDead && final_[s];
}

std::size_t Dfa::Size() const {
  return static_cast<std::size_t>(num_states()) +
         static_cast<std::size_t>(num_symbols_) + defined_;
}

Dfa Dfa::Completed() const {
  Dfa out = *this;
  if (out.initial_ == kDead) {
    out.initial_ = out.AddState(false);
  }
  if (out.IsComplete()) return out;
  const int sink = out.AddState(false);
  // Every stored row, the new sink's included, but not the implicit one.
  const std::size_t stored = out.Index(sink + 1, 0);
  for (std::size_t i = 0; i < stored; ++i) {
    if (out.trans_[i] == kDead) out.trans_[i] = sink;
  }
  out.defined_ = stored;
  return out;
}

Dfa Dfa::Complemented() const {
  Dfa out = Completed();
  for (int s = 0; s < out.num_states(); ++s) {
    out.final_[s] = !out.final_[s];
  }
  return out;
}

Dfa Dfa::Product(const Dfa& a, const Dfa& b, BoolOp op) {
  // Ungoverned: with a null budget the governed construction cannot fail.
  return *Product(a, b, op, nullptr);
}

StatusOr<Dfa> Dfa::Product(const Dfa& a, const Dfa& b, BoolOp op,
                           Budget* budget) {
  // Pairs of the complete views, so the pairing never loses track of one
  // side; an unset initial state reads as the sink.
  auto start = [](const Dfa& d) {
    return d.initial() == kDead ? d.sink() : d.initial();
  };
  Dfa out(a.num_symbols());
  XTC_CHECK_EQ(a.num_symbols(), b.num_symbols());
  // Pair states are interned by hash; interner ids coincide with DFA state
  // ids, so the id sequence doubles as the BFS worklist.
  SubsetInterner ids;
  auto get = [&](int sa, int sb) {
    const int pair[2] = {sa, sb};
    int id = ids.Intern(pair);
    if (id < out.num_states()) return id;  // already materialized
    bool fa = a.final(sa);
    bool fb = b.final(sb);
    bool f = false;
    switch (op) {
      case BoolOp::kAnd:
        f = fa && fb;
        break;
      case BoolOp::kOr:
        f = fa || fb;
        break;
      case BoolOp::kDiff:
        f = fa && !fb;
        break;
    }
    return out.AddState(f);
  };
  out.SetInitial(get(start(a), start(b)));
  for (int from = 0; from < ids.size(); ++from) {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Dfa::Product"));
    // Copy out: the interner pool may reallocate as new pairs are minted.
    const std::span<const int> pair = ids.Get(from);
    const int sa = pair[0];
    const int sb = pair[1];
    for (int sym = 0; sym < a.num_symbols(); ++sym) {
      int ta = a.StepComplete(sa, sym);
      int tb = b.StepComplete(sb, sym);
      out.SetTransition(from, sym, get(ta, tb));
    }
  }
  return out;
}

bool Dfa::IsEmpty() const { return !ShortestAccepted().has_value(); }

std::optional<std::vector<int>> Dfa::ShortestAccepted() const {
  if (initial_ == kDead) return std::nullopt;
  std::vector<int> pred_state(num_states(), -2);
  std::vector<int> pred_sym(num_states(), -1);
  std::deque<int> queue;
  pred_state[initial_] = -1;
  queue.push_back(initial_);
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop_front();
    if (final_[s]) {
      std::vector<int> word;
      for (int cur = s; pred_state[cur] != -1; cur = pred_state[cur]) {
        word.push_back(pred_sym[cur]);
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    for (int sym = 0; sym < num_symbols_; ++sym) {
      int t = trans_[Index(s, sym)];
      if (t == kDead || pred_state[t] != -2) continue;
      pred_state[t] = s;
      pred_sym[t] = sym;
      queue.push_back(t);
    }
  }
  return std::nullopt;
}

bool Dfa::IncludedIn(const Dfa& other) const {
  return Product(*this, other, BoolOp::kDiff).IsEmpty();
}

bool Dfa::EquivalentTo(const Dfa& other) const {
  return IncludedIn(other) && other.IncludedIn(*this);
}

namespace {

// A refinable partition of the elements 0..n-1 (Valmari and Lehtinen): set
// s occupies positions [first[s], past[s]) of `elems`, `loc` inverts
// `elems` and `set_of` maps each element to its set. Mark() moves an
// element into the marked prefix of its set; Split() cuts every touched set
// into its marked and unmarked parts and gives the smaller part a new id.
// `marked` (per set, zero between splits) and `touched` are shared by the
// state and transition partitions, which never hold marks at once.
struct RefinablePartition {
  int sets = 0;
  int* elems;
  int* loc;
  int* set_of;
  int* first;
  int* past;
  int* marked;
  int* touched;
  int num_touched = 0;

  void Init(int n) {
    sets = 1;
    for (int i = 0; i < n; ++i) {
      elems[i] = loc[i] = i;
      set_of[i] = 0;
    }
    first[0] = 0;
    past[0] = n;
  }

  void Mark(int e) {
    const int s = set_of[e];
    const int i = loc[e];
    const int j = first[s] + marked[s];
    elems[i] = elems[j];
    loc[elems[i]] = i;
    elems[j] = e;
    loc[e] = j;
    if (marked[s]++ == 0) touched[num_touched++] = s;
  }

  void Split() {
    while (num_touched > 0) {
      const int s = touched[--num_touched];
      const int j = first[s] + marked[s];
      if (j == past[s]) {
        marked[s] = 0;
        continue;
      }
      if (marked[s] <= past[s] - j) {
        first[sets] = first[s];
        past[sets] = first[s] = j;
      } else {
        past[sets] = past[s];
        first[sets] = past[s] = j;
      }
      for (int i = first[sets]; i < past[sets]; ++i) set_of[elems[i]] = sets;
      marked[s] = marked[sets++] = 0;
    }
  }
};

}  // namespace

StatusOr<bool> Dfa::Minimize(MinimizeWorkspace* workspace, Budget* budget) {
  XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Dfa::Minimize"));
  const int n = num_states();
  // The empty language keeps one non-final state so initial() stays valid.
  auto make_empty = [&]() -> bool {
    if (n == 1 && initial_ == 0 && !final_[0] && defined_ == 0) return false;
    final_.assign(2, false);
    trans_.assign(Index(2, 0), kDead);
    defined_ = 0;
    initial_ = 0;
    return true;
  };
  if (n == 0 || initial_ == kDead) return make_empty();
  if (n == 1 && final_[0]) return false;  // the ε rule, a*, ...

  int m = static_cast<int>(defined_);
  const int num_sets = std::max(n, m) + 1;
  const std::size_t need = 9 * static_cast<std::size_t>(m) +
                           6 * static_cast<std::size_t>(n) + 2 +
                           static_cast<std::size_t>(num_symbols_) +
                           2 * static_cast<std::size_t>(num_sets);
  int* next = workspace->Reserve(need);
  auto carve = [&](int len) {
    int* out = next;
    next += len;
    return out;
  };
  int* tail = carve(m);
  int* label = carve(m);
  int* head = carve(m);
  int* in = carve(m);             // transitions grouped by head
  int* in_first = carve(n + 1);   // in[in_first[q] .. in_first[q + 1])
  int* label_first = carve(num_symbols_ + 1);
  int* marked = carve(num_sets);
  int* touched = carve(num_sets);
  RefinablePartition blocks{0,        carve(n), carve(n), carve(n), carve(n),
                            carve(n), marked,   touched};
  RefinablePartition cords{0,        carve(m), carve(m), carve(m), carve(m),
                           carve(m), marked,   touched};

  // Counting sort of the transitions by key[t] in [0, keys) into `out`;
  // afterwards out[first[k] .. first[k + 1]) lists the transitions of key k.
  auto sort_by = [&](const int* key, int keys, int* first, int* out) {
    std::fill(first, first + keys + 1, 0);
    for (int t = 0; t < m; ++t) ++first[key[t]];
    for (int k = 0; k < keys; ++k) first[k + 1] += first[k];
    for (int t = m; t-- > 0;) out[--first[key[t]]] = t;
  };

  // Trimming. The first `reached` positions of blocks.elems hold the
  // states reached so far.
  int reached = 0;
  auto reach = [&](int q) {
    const int i = blocks.loc[q];
    if (i < reached) return;
    blocks.elems[i] = blocks.elems[reached];
    blocks.loc[blocks.elems[i]] = i;
    blocks.elems[reached] = q;
    blocks.loc[q] = reached++;
  };
  blocks.Init(n);
  // Forward, straight on the dense rows; only the transitions leaving a
  // reachable state are collected.
  reach(initial_);
  for (int i = 0; i < reached; ++i) {
    const int* row = trans_.data() + Index(blocks.elems[i], 0);
    for (int a = 0; a < num_symbols_; ++a) {
      if (row[a] != kDead) reach(row[a]);
    }
  }
  const int reachable = reached;
  m = 0;
  for (int s = 0; s < n; ++s) {
    if (blocks.loc[s] >= reachable) continue;
    const int* row = trans_.data() + Index(s, 0);
    for (int a = 0; a < num_symbols_; ++a) {
      if (row[a] == kDead) continue;
      tail[m] = s;
      label[m] = a;
      head[m] = row[a];
      ++m;
    }
  }
  // Backward from the reachable finals, which thus come first: positions
  // [0, finals) of blocks.elems are the final states.
  reached = 0;
  for (int q = 0; q < n; ++q) {
    if (final_[q] && blocks.loc[q] < reachable) reach(q);
  }
  const int finals = reached;
  sort_by(head, n, in_first, in);
  for (int i = 0; i < reached; ++i) {
    const int q = blocks.elems[i];
    for (int j = in_first[q]; j < in_first[q + 1]; ++j) reach(tail[in[j]]);
  }
  const int useful = reached;
  if (blocks.loc[initial_] >= useful) return make_empty();
  blocks.past[0] = useful;
  if (useful < reachable) {
    // A transition into a useful state leaves a useful one, so filtering
    // by head drops exactly the transitions that touch a useless state.
    int kept = 0;
    for (int t = 0; t < m; ++t) {
      if (blocks.loc[head[t]] >= useful) continue;
      tail[kept] = tail[t];
      label[kept] = label[t];
      head[kept] = head[t];
      ++kept;
    }
    m = kept;
    sort_by(head, n, in_first, in);
  }

  // Initial partition: finals and non-finals.
  std::fill(marked, marked + num_sets, 0);
  marked[0] = finals;
  touched[blocks.num_touched++] = 0;
  blocks.Split();
  // Cords: the transitions grouped by label.
  sort_by(label, num_symbols_, label_first, cords.elems);
  for (int i = 0; i < m; ++i) {
    const int t = cords.elems[i];
    if (i == 0 || label[t] != label[cords.elems[i - 1]]) {
      if (i > 0) cords.past[cords.sets - 1] = i;
      cords.first[cords.sets++] = i;
    }
    cords.loc[t] = i;
    cords.set_of[t] = cords.sets - 1;
  }
  if (m > 0) cords.past[cords.sets - 1] = m;

  // Hopcroft refinement: each cord splits the blocks by its tails, and each
  // new block splits the cords by its incoming transitions. Block 0 is
  // never a splitter: the cords already separate by every label. Once
  // every block is a single state nothing is left to split, which ends
  // the loop early on the common, already minimal DFA.
  for (int b = 1, c = 0; c < cords.sets && blocks.sets < useful; ++c) {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Dfa::Minimize"));
    for (int i = cords.first[c]; i < cords.past[c]; ++i) {
      blocks.Mark(tail[cords.elems[i]]);
    }
    blocks.Split();
    for (; b < blocks.sets; ++b) {
      for (int i = blocks.first[b]; i < blocks.past[b]; ++i) {
        const int q = blocks.elems[i];
        for (int j = in_first[q]; j < in_first[q + 1]; ++j) cords.Mark(in[j]);
      }
      cords.Split();
    }
  }
  const int classes = blocks.sets;
  if (useful == n && classes == n) return false;

  // Rewrite in place. Each class is numbered by its first member, so the
  // representatives rep[0] < rep[1] < ... satisfy rep[k] >= k, and row k can
  // take row rep[k] before any later representative's row is touched.
  int* class_id = marked;
  int* rep = touched;
  std::fill(class_id, class_id + classes, -1);
  int k = 0;
  for (int q = 0; q < n; ++q) {
    if (blocks.loc[q] >= useful) continue;
    int& id = class_id[blocks.set_of[q]];
    if (id < 0) {
      id = k;
      rep[k++] = q;
    }
  }
  auto renamed = [&](int q) {
    return blocks.loc[q] < useful ? class_id[blocks.set_of[q]] : kDead;
  };
  initial_ = renamed(initial_);
  defined_ = 0;
  for (k = 0; k < classes; ++k) {
    const int q = rep[k];
    int* row = trans_.data() + Index(k, 0);
    if (q != k) {
      std::copy_n(trans_.data() + Index(q, 0), num_symbols_, row);
      final_[static_cast<std::size_t>(k)] = final_[static_cast<std::size_t>(q)];
    }
    for (int a = 0; a < num_symbols_; ++a) {
      if (row[a] == kDead) continue;
      row[a] = renamed(row[a]);
      if (row[a] != kDead) ++defined_;
    }
  }
  // The sink row goes back to the end.
  trans_.resize(Index(classes + 1, 0));
  std::fill(trans_.begin() + static_cast<std::ptrdiff_t>(Index(classes, 0)),
            trans_.end(), kDead);
  final_.resize(static_cast<std::size_t>(classes) + 1);
  final_[static_cast<std::size_t>(classes)] = false;
  return true;
}

Nfa Dfa::ToNfa() const {
  Nfa out(num_symbols_);
  for (int s = 0; s < num_states(); ++s) {
    out.AddState(s == initial_, final_[s]);
  }
  for (int s = 0; s < num_states(); ++s) {
    for (int sym = 0; sym < num_symbols_; ++sym) {
      const int t = trans_[Index(s, sym)];
      if (t != kDead) out.AddTransition(s, sym, t);
    }
  }
  return out;
}

Nfa Dfa::Reverse(const Dfa& d) {
  Nfa out(d.num_symbols());
  for (int s = 0; s < d.num_states(); ++s) {
    out.AddState(d.final(s), s == d.initial());
  }
  for (int s = 0; s < d.num_states(); ++s) {
    for (int sym = 0; sym < d.num_symbols(); ++sym) {
      int t = d.trans_[d.Index(s, sym)];
      if (t != kDead) out.AddTransition(t, sym, s);
    }
  }
  return out;
}

Dfa Dfa::FromNfa(const Nfa& n) { return *FromNfa(n, nullptr); }

StatusOr<Dfa> Dfa::FromNfa(const Nfa& n, Budget* budget) {
  Dfa out(n.num_symbols());
  // Subsets are interned by hash; interner ids coincide with DFA state ids,
  // so iterating ids in order doubles as the BFS worklist.
  SubsetInterner ids;
  auto intern = [&](std::span<const int> set) {
    int id = ids.Intern(set);
    if (id < out.num_states()) return id;  // seen before
    bool f = false;
    for (int s : set) {
      if (n.final(s)) f = true;
    }
    return out.AddState(f);
  };
  std::vector<int> init;
  for (int s = 0; s < n.num_states(); ++s) {
    if (n.initial(s)) init.push_back(s);
  }
  out.SetInitial(intern(init));
  // The subset's edges sorted by (symbol, target), and one symbol's
  // targets; both keep their capacity across subsets.
  std::vector<std::pair<int, int>> edges;
  std::vector<int> tos;
  for (int from = 0; from < ids.size(); ++from) {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Dfa::FromNfa"));
    // The edges are gathered before anything is interned: the interner
    // pool, and so the span, may move once new subsets are minted.
    edges.clear();
    for (int s : ids.Get(from)) {
      const auto& out_edges = n.Edges(s);
      edges.insert(edges.end(), out_edges.begin(), out_edges.end());
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    // Symbols in increasing order, so subset ids are minted in BFS order.
    for (std::size_t i = 0; i < edges.size();) {
      const int sym = edges[i].first;
      tos.clear();
      for (; i < edges.size() && edges[i].first == sym; ++i) {
        tos.push_back(edges[i].second);
      }
      out.SetTransition(from, sym, intern(tos));
    }
  }
  return out;
}

}  // namespace xtc
