#ifndef XTC_SCHEMA_DTD_H_
#define XTC_SCHEMA_DTD_H_

#include <optional>
#include <string_view>
#include <vector>

#include "src/base/budget.h"
#include "src/base/state_set.h"
#include "src/base/status.h"
#include "src/fa/alphabet.h"
#include "src/fa/dfa.h"
#include "src/fa/nfa.h"
#include "src/fa/regex.h"
#include "src/schema/re_plus.h"
#include "src/tree/tree.h"

namespace xtc {

/// A DTD (d, s_d) in the sense of Definition 1: a start symbol plus a map
/// from symbols to regular string languages over the alphabet. The
/// representation class M of DTD(M) is tracked per rule: rules can be
/// installed from regular expressions (RE+ shape detected automatically),
/// NFAs, or DFAs. Symbols without a rule default to the content model ε
/// (leaves), matching the convention of the paper's examples, where e.g.
/// `title` has no declared rule.
///
/// The alphabet must be fully interned before the Dtd is created; the Dtd
/// snapshots the alphabet size and all rule automata run over it.
class Dtd {
 public:
  /// How a rule was provided; determines which DTD(M) classes the schema
  /// belongs to.
  enum class RuleKind {
    kEpsilonDefault,  ///< no declared rule; content model ε
    kRePlus,          ///< RE+ expression (Section 5)
    kDetRegex,        ///< one-unambiguous regex (DFA-convertible in PTIME)
    kNondetRegex,     ///< general regex (NFA)
    kNfa,             ///< explicit NFA
    kDfa,             ///< explicit DFA
  };

  Dtd(Alphabet* alphabet, int start_symbol);

  /// Installs d(symbol) = L(re).
  void SetRule(int symbol, RegexPtr re);

  /// Convenience: parses `regex` and installs it for `symbol_name`. Fails
  /// only on parse errors. New names are interned (they must have been
  /// interned before Dtd construction to be usable as node labels; interning
  /// here keeps error messages readable).
  Status SetRule(std::string_view symbol_name, std::string_view regex);

  void SetRuleNfa(int symbol, Nfa nfa);
  void SetRuleDfa(int symbol, Dfa dfa);

  Alphabet* alphabet() const { return alphabet_; }
  int num_symbols() const { return num_symbols_; }
  int start() const { return start_; }
  void SetStart(int symbol) { start_ = symbol; }

  RuleKind rule_kind(int symbol) const;
  bool HasRule(int symbol) const;
  const RegexPtr& RuleRegex(int symbol) const;  ///< may be null (NFA/DFA rule)

  /// The rule's NFA (default-ε for undeclared symbols).
  const Nfa& RuleNfa(int symbol) const;

  /// The rule as a (partial) DFA, cached. For kNondetRegex/kNfa rules the
  /// subset construction can be exponential — that is the DTD(NFA) →
  /// DTD(DFA) cost the paper's PSPACE row charges.
  ///
  /// Invariant: each rule is stored once, and every rule DFA a Dtd hands
  /// out is minimal and trimmed (Dfa::Minimize), whether it came from
  /// subset construction or from SetRuleDfa: no unreachable state, no state
  /// that cannot reach a final state, no stored sink (an empty rule
  /// language keeps one non-final state as its initial state). These state
  /// counts are Lemma 14's |d_in| and |d_out|, which sit in the exponent of
  /// the trac engine's bound. Engines that run a rule as a complete
  /// automaton (d_out's A_sigma in Lemma 14, the stream validator) read the
  /// same DFA through its complete view (Dfa::StepComplete), whose implicit
  /// sink is the one extra state a completion would add. RuleDfa() and
  /// Compile() force rules through the same helper, so direct engine calls
  /// and the compile cache explore the same automata.
  const Dfa& RuleDfa(int symbol) const;

  /// Total states of the declared deterministic rules' DFAs (explicit DFA,
  /// one-unambiguous regex, RE+): Lemma 14's |d| counted in rule-DFA
  /// states. kNfa and kNondetRegex rules are skipped, so this never runs an
  /// exponential subset construction; DeterminizeDtd keeps exactly the
  /// rules the engine never consults in that form.
  int RuleDfaStates() const;

  /// The rule's RE+ shape, if it has one.
  const RePlus* RuleRePlus(int symbol) const;

  /// Forces every lazily computed member — each rule's minimized DFA and
  /// the inhabitation fixpoint — so that all later const access is a pure
  /// read. A Dtd is thread-compatible only after Compile(): RuleDfa /
  /// InhabitedSymbols populate `mutable` caches on first use, which is a
  /// data race when a cached schema artifact is shared across service
  /// workers (src/base/README.md). The subset constructions and
  /// minimizations are governed by `budget` — for DTD(NFA) rules they are
  /// worst-case exponential (the PSPACE price of Table 1), and a compile
  /// cache must degrade softly rather than thrash on a hostile schema.
  Status Compile(Budget* budget = nullptr);

  /// Whether Compile() has run (and no rule was reinstalled since).
  bool IsCompiled() const;

  /// Whether every rule is RE+ (DTD(RE+), Section 5).
  bool IsRePlusDtd() const;

  /// Whether every rule is deterministic without subset construction
  /// (DTD(DFA): explicit DFA, one-unambiguous regex, RE+, or default ε).
  bool IsDfaDtd() const;

  /// Paper size measure: sum of rule representation sizes.
  std::size_t Size() const;

  // --- Validation (Definition 1) ---

  /// Whether `tree` satisfies the DTD (root label = start symbol and every
  /// node's child string matches its rule).
  bool Valid(const Node* tree) const;

  /// Whether `tree` is in L(d, lab(root)): every node's child string matches
  /// its rule, but the root label is not required to be the start symbol.
  bool LocallyValid(const Node* tree) const;

  /// Whether the hedge "partly satisfies" the DTD (Lemma 14 terminology):
  /// child strings match everywhere; no constraint on the hedge's roots.
  bool PartlySatisfies(const Hedge& hedge) const;

  // --- Analysis ---

  /// Symbols b with L(d, b) nonempty (least fixpoint).
  const StateSet& InhabitedSymbols() const;

  /// Whether L(d) = ∅.
  bool LanguageEmpty() const;

  /// Symbols occurring in some word of L(d(parent)) all of whose letters are
  /// inhabited (i.e. labels that can actually appear below `parent` in a
  /// valid tree).
  StateSet UsableChildren(int parent) const;

  /// A shortest word of L(d(parent)) over inhabited symbols.
  std::optional<std::vector<int>> ShortestUsableWord(int parent) const;

  /// A shortest word of L(d(parent)) over inhabited symbols containing
  /// `child`; used to embed counterexample contexts (Corollary 38).
  std::optional<std::vector<int>> UsableWordContaining(int parent,
                                                       int child) const;

 private:
  struct Rule {
    RuleKind kind = RuleKind::kEpsilonDefault;
    RegexPtr regex;
    std::optional<RePlus> re_plus;
    std::optional<Nfa> nfa;
    // As installed by SetRuleDfa until forced; minimal once `forced`.
    mutable std::optional<Dfa> dfa;
    mutable bool forced = false;
  };

  // Builds the rule's DFA if it has none and minimizes and trims it;
  // `forced` marks a forced rule.
  static Status ForceRuleDfa(const Rule& r, Dfa::MinimizeWorkspace* workspace,
                             Budget* budget);

  const Rule& rule(int symbol) const;
  Rule& mutable_rule(int symbol);
  void InvalidateAnalysis();

  Alphabet* alphabet_;
  int num_symbols_;
  int start_;
  std::vector<Rule> rules_;
  Rule default_rule_;  // shared ε rule for undeclared symbols
  mutable std::optional<StateSet> inhabited_;
};

}  // namespace xtc

#endif  // XTC_SCHEMA_DTD_H_
