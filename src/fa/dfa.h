#ifndef XTC_FA_DFA_H_
#define XTC_FA_DFA_H_

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/base/budget.h"
#include "src/base/status.h"
#include "src/fa/nfa.h"

namespace xtc {

/// A deterministic finite automaton over integer symbols 0..num_symbols-1,
/// stored partial and read through two views. DTD(DFA) rules (Section 2.2)
/// and output-schema automata (Lemma 14) are represented with this class.
///  - Partial: Step() and Run() send a missing transition to Dfa::kDead,
///    which stays dead.
///  - Complete: StepComplete() and RunComplete() send it to the implicit
///    sink() == num_states(), a non-final state that loops on every symbol.
///    The view has num_complete_states() states, the sink counted only when
///    some transition is missing; once initial() is set, they are the
///    states of Completed(), numbered alike.
/// All transitions live in one row-major table whose last row is the
/// sink's, so both views cost one read. num_states() counts the stored
/// states only.
class Dfa {
 public:
  static constexpr int kDead = -1;

  explicit Dfa(int num_symbols)
      : num_symbols_(num_symbols),
        final_(1, false),
        trans_(static_cast<std::size_t>(num_symbols), kDead) {}

  int AddState(bool final = false);
  void SetInitial(int state) { initial_ = state; }
  void SetFinal(int state, bool final = true);
  void SetTransition(int from, int symbol, int to);

  int num_states() const { return static_cast<int>(final_.size()) - 1; }
  int num_symbols() const { return num_symbols_; }
  int initial() const { return initial_; }
  /// Whether `state` is final; the sink never is.
  bool final(int state) const { return final_[state]; }

  /// One transition step; `state` may be kDead (stays dead).
  int Step(int state, int symbol) const;

  /// Runs the automaton on `word` starting from `state`; returns the
  /// resulting state (possibly kDead). This is the delta-star used all over
  /// the Lemma 14 construction.
  int Run(int state, std::span<const int> word) const;

  int sink() const { return num_states(); }
  int num_complete_states() const {
    return IsComplete() ? num_states() : num_states() + 1;
  }

  /// One step of the complete view: `state` is a stored state or sink(),
  /// and a missing transition goes to sink(). The view starts at
  /// initial(), which must be set.
  int StepComplete(int state, int symbol) const;
  int RunComplete(int state, std::span<const int> word) const;

  bool Accepts(std::span<const int> word) const;

  /// Paper size measure.
  std::size_t Size() const;

  /// Whether initial() is set and no transition is missing.
  bool IsComplete() const {
    return initial_ != kDead &&
           defined_ == static_cast<std::size_t>(num_states()) *
                           static_cast<std::size_t>(num_symbols_);
  }

  /// Returns an equivalent complete DFA with the sink stored (adds an
  /// initial state if none is set).
  Dfa Completed() const;

  /// Returns a complete DFA for the complement language.
  Dfa Complemented() const;

  enum class BoolOp { kAnd, kOr, kDiff };

  /// Product construction over the operands' complete views. For kDiff,
  /// accepts L(a) \ L(b). The governed overload checkpoints the budget
  /// once per discovered pair state and fails with kResourceExhausted
  /// instead of building an oversized product.
  static Dfa Product(const Dfa& a, const Dfa& b, BoolOp op);
  static StatusOr<Dfa> Product(const Dfa& a, const Dfa& b, BoolOp op,
                               Budget* budget);

  bool IsEmpty() const;
  std::optional<std::vector<int>> ShortestAccepted() const;

  /// Language inclusion L(this) ⊆ L(other).
  bool IncludedIn(const Dfa& other) const;
  bool EquivalentTo(const Dfa& other) const;

  /// Reusable scratch for Minimize(): one flat int buffer. Rule-sized DFAs
  /// fit the inline part and allocate nothing; larger ones use a heap
  /// buffer that grows to the largest DFA the workspace has served.
  class MinimizeWorkspace {
   private:
    friend class Dfa;
    static constexpr std::size_t kInline = 1024;
    int* Reserve(std::size_t n) {
      if (n <= kInline) return inline_.data();
      if (heap_.size() < n) heap_.resize(n);
      return heap_.data();
    }
    std::array<int, kInline> inline_;
    std::vector<int> heap_;
  };

  /// Minimizes this partial DFA in place and trims it: states unreachable
  /// from the initial state and states that cannot reach a final state are
  /// dropped, and no sink is added. Partition refinement in the style of
  /// Hopcroft on partial DFAs (Valmari and Lehtinen, STACS 2008) over the
  /// defined transitions only, O(m log n) for m defined transitions.
  ///
  /// Surviving states keep their relative order (each class is numbered by
  /// its first member), so a subset-construction DFA stays in BFS order.
  /// An empty language becomes one non-final state without transitions, so
  /// initial() stays a valid state. Returns whether the DFA changed; an
  /// already minimal and trimmed DFA is left untouched, and with a warm
  /// workspace the call allocates nothing. Checkpoints `budget` once per
  /// call and once per splitter (a set of same-label transitions); on
  /// exhaustion the DFA is unchanged.
  StatusOr<bool> Minimize(MinimizeWorkspace* workspace,
                          Budget* budget = nullptr);

  Nfa ToNfa() const;

  /// Subset construction. The governed overload checkpoints per subset
  /// state interned — the construction is worst-case exponential, so this
  /// is a primary exhaustion site.
  static Nfa Reverse(const Dfa& d);
  static Dfa FromNfa(const Nfa& n);
  static StatusOr<Dfa> FromNfa(const Nfa& n, Budget* budget);

 private:
  std::size_t Index(int state, int symbol) const {
    return static_cast<std::size_t>(state) *
               static_cast<std::size_t>(num_symbols_) +
           static_cast<std::size_t>(symbol);
  }

  int num_symbols_;
  int initial_ = kDead;
  std::size_t defined_ = 0;  // transitions that are not kDead
  std::vector<bool> final_;  // per state, then the sink's (false)
  std::vector<int> trans_;   // trans_[Index(state, symbol)]; sink row last
};

}  // namespace xtc

#endif  // XTC_FA_DFA_H_
