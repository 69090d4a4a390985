#include "src/schema/dtd.h"

#include <algorithm>
#include <deque>

#include "src/base/logging.h"

namespace xtc {

Dtd::Dtd(Alphabet* alphabet, int start_symbol)
    : alphabet_(alphabet),
      num_symbols_(alphabet->size()),
      start_(start_symbol),
      rules_(static_cast<std::size_t>(num_symbols_)) {
  XTC_CHECK(start_symbol >= 0 && start_symbol < num_symbols_);
  // The shared default rule accepts exactly ε.
  Nfa eps(num_symbols_);
  eps.AddState(/*initial=*/true, /*final=*/true);
  default_rule_.nfa = std::move(eps);
  default_rule_.re_plus = RePlus();
  default_rule_.regex = Regex::Epsilon();
}

void Dtd::SetRule(int symbol, RegexPtr re) {
  Rule& r = mutable_rule(symbol);
  r.regex = re;
  r.nfa = RegexToNfa(*re, num_symbols_);
  r.dfa.reset();
  r.forced = false;
  StatusOr<RePlus> rp = RePlus::FromRegex(*re);
  if (rp.ok()) {
    r.re_plus = *std::move(rp);
    r.kind = RuleKind::kRePlus;
  } else {
    r.re_plus.reset();
    r.kind = RegexIsOneUnambiguous(*re, num_symbols_) ? RuleKind::kDetRegex
                                                      : RuleKind::kNondetRegex;
  }
  InvalidateAnalysis();
}

Status Dtd::SetRule(std::string_view symbol_name, std::string_view regex) {
  std::optional<int> symbol = alphabet_->Find(symbol_name);
  if (!symbol.has_value() || *symbol >= num_symbols_) {
    return InvalidArgumentError("symbol '" + std::string(symbol_name) +
                                "' was not interned before Dtd construction");
  }
  StatusOr<RegexPtr> re = ParseRegex(regex, alphabet_);
  if (!re.ok()) return re.status();
  std::vector<bool> used(static_cast<std::size_t>(alphabet_->size()), false);
  RegexSymbols(**re, &used);
  for (int s = num_symbols_; s < alphabet_->size(); ++s) {
    if (used[static_cast<std::size_t>(s)]) {
      return InvalidArgumentError(
          "rule mentions symbol '" + alphabet_->Name(s) +
          "' that was not interned before Dtd construction");
    }
  }
  SetRule(*symbol, *re);
  return Status::Ok();
}

void Dtd::SetRuleNfa(int symbol, Nfa nfa) {
  XTC_CHECK_EQ(nfa.num_symbols(), num_symbols_);
  Rule& r = mutable_rule(symbol);
  r.regex = nullptr;
  r.re_plus.reset();
  r.nfa = std::move(nfa);
  r.dfa.reset();
  r.forced = false;
  r.kind = RuleKind::kNfa;
  InvalidateAnalysis();
}

void Dtd::SetRuleDfa(int symbol, Dfa dfa) {
  XTC_CHECK_EQ(dfa.num_symbols(), num_symbols_);
  Rule& r = mutable_rule(symbol);
  r.regex = nullptr;
  r.re_plus.reset();
  r.nfa = dfa.ToNfa();
  r.dfa = std::move(dfa);
  r.forced = false;
  r.kind = RuleKind::kDfa;
  InvalidateAnalysis();
}

const Dtd::Rule& Dtd::rule(int symbol) const {
  XTC_CHECK(symbol >= 0 && symbol < num_symbols_);
  const Rule& r = rules_[static_cast<std::size_t>(symbol)];
  if (r.kind == RuleKind::kEpsilonDefault && !r.nfa.has_value()) {
    return default_rule_;
  }
  return r;
}

Dtd::Rule& Dtd::mutable_rule(int symbol) {
  XTC_CHECK(symbol >= 0 && symbol < num_symbols_);
  return rules_[static_cast<std::size_t>(symbol)];
}

void Dtd::InvalidateAnalysis() { inhabited_.reset(); }

Dtd::RuleKind Dtd::rule_kind(int symbol) const { return rule(symbol).kind; }

bool Dtd::HasRule(int symbol) const {
  return rule(symbol).kind != RuleKind::kEpsilonDefault;
}

const RegexPtr& Dtd::RuleRegex(int symbol) const { return rule(symbol).regex; }

const Nfa& Dtd::RuleNfa(int symbol) const {
  const Rule& r = rule(symbol);
  XTC_CHECK(r.nfa.has_value());
  return *r.nfa;
}

Status Dtd::ForceRuleDfa(const Rule& r, Dfa::MinimizeWorkspace* workspace,
                         Budget* budget) {
  if (r.forced) return Status::Ok();
  const bool built = !r.dfa.has_value();
  if (built) {
    XTC_ASSIGN_OR_RETURN(r.dfa, Dfa::FromNfa(*r.nfa, budget));
  }
  XTC_RETURN_IF_ERROR(r.dfa->Minimize(workspace, budget).status());
  r.forced = true;
  // Minimize works in place, so only a DFA built here is new memory.
  if (budget != nullptr && built) {
    budget->ChargeBytes(r.dfa->Size() * sizeof(int));
  }
  return Status::Ok();
}

const Dfa& Dtd::RuleDfa(int symbol) const {
  const Rule& r = rule(symbol);
  if (!r.forced) {
    Dfa::MinimizeWorkspace workspace;
    // Ungoverned, so it cannot fail.
    XTC_CHECK(ForceRuleDfa(r, &workspace, nullptr).ok());
  }
  return *r.dfa;
}

int Dtd::RuleDfaStates() const {
  int total = 0;
  for (int s = 0; s < num_symbols_; ++s) {
    const RuleKind kind = rule(s).kind;
    if (kind == RuleKind::kEpsilonDefault || kind == RuleKind::kNfa ||
        kind == RuleKind::kNondetRegex) {
      continue;
    }
    total += RuleDfa(s).num_states();
  }
  return total;
}

const RePlus* Dtd::RuleRePlus(int symbol) const {
  const Rule& r = rule(symbol);
  return r.re_plus.has_value() ? &*r.re_plus : nullptr;
}

Status Dtd::Compile(Budget* budget) {
  // The shared default-ε rule is forced too: RuleDfa on an undeclared
  // symbol would otherwise write into default_rule_ on first use.
  Dfa::MinimizeWorkspace workspace;
  auto force = [&](const Rule& r) -> Status {
    XTC_RETURN_IF_ERROR(BudgetCheck(budget, "Dtd::Compile"));
    return ForceRuleDfa(r, &workspace, budget);
  };
  XTC_RETURN_IF_ERROR(force(default_rule_));
  for (int s = 0; s < num_symbols_; ++s) {
    const Rule& r = rules_[static_cast<std::size_t>(s)];
    if (r.kind == RuleKind::kEpsilonDefault && !r.nfa.has_value()) continue;
    XTC_RETURN_IF_ERROR(force(r));
  }
  (void)InhabitedSymbols();
  return Status::Ok();
}

bool Dtd::IsCompiled() const {
  if (!inhabited_.has_value()) return false;
  if (!default_rule_.forced) return false;
  for (int s = 0; s < num_symbols_; ++s) {
    const Rule& r = rules_[static_cast<std::size_t>(s)];
    if (r.kind == RuleKind::kEpsilonDefault && !r.nfa.has_value()) continue;
    if (!r.forced) return false;
  }
  return true;
}

bool Dtd::IsRePlusDtd() const {
  for (int s = 0; s < num_symbols_; ++s) {
    const Rule& r = rule(s);
    if (r.kind != RuleKind::kEpsilonDefault && r.kind != RuleKind::kRePlus) {
      return false;
    }
  }
  return true;
}

bool Dtd::IsDfaDtd() const {
  for (int s = 0; s < num_symbols_; ++s) {
    switch (rule(s).kind) {
      case RuleKind::kEpsilonDefault:
      case RuleKind::kRePlus:
      case RuleKind::kDetRegex:
      case RuleKind::kDfa:
        break;
      case RuleKind::kNondetRegex:
      case RuleKind::kNfa:
        return false;
    }
  }
  return true;
}

std::size_t Dtd::Size() const {
  std::size_t total = 0;
  for (int s = 0; s < num_symbols_; ++s) {
    const Rule& r = rule(s);
    if (r.kind == RuleKind::kEpsilonDefault) continue;
    total += r.nfa->Size();
  }
  return total;
}

namespace {

bool NodeChildrenMatch(const Dtd& dtd, const Node* node) {
  std::vector<int> labels;
  labels.reserve(node->child_count);
  for (const Node* c : node->Children()) {
    if (c->label < 0 || c->label >= dtd.num_symbols()) return false;
    labels.push_back(c->label);
  }
  return dtd.RuleNfa(node->label).Accepts(labels);
}

bool LocallyValidRec(const Dtd& dtd, const Node* node) {
  if (node->label < 0 || node->label >= dtd.num_symbols()) return false;
  if (!NodeChildrenMatch(dtd, node)) return false;
  for (const Node* c : node->Children()) {
    if (!LocallyValidRec(dtd, c)) return false;
  }
  return true;
}

}  // namespace

bool Dtd::Valid(const Node* tree) const {
  if (tree == nullptr) return false;
  if (tree->label != start_) return false;
  return LocallyValidRec(*this, tree);
}

bool Dtd::LocallyValid(const Node* tree) const {
  if (tree == nullptr) return false;
  return LocallyValidRec(*this, tree);
}

bool Dtd::PartlySatisfies(const Hedge& hedge) const {
  for (const Node* t : hedge) {
    if (!LocallyValidRec(*this, t)) return false;
  }
  return true;
}

const StateSet& Dtd::InhabitedSymbols() const {
  if (inhabited_.has_value()) return *inhabited_;
  StateSet inhabited(num_symbols_);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int s = 0; s < num_symbols_; ++s) {
      if (inhabited.Test(s)) continue;
      if (RuleNfa(s).AcceptsSomeOver(&inhabited)) {
        inhabited.Set(s);
        changed = true;
      }
    }
  }
  inhabited_ = std::move(inhabited);
  return *inhabited_;
}

bool Dtd::LanguageEmpty() const { return !InhabitedSymbols().Test(start_); }

StateSet Dtd::UsableChildren(int parent) const {
  return RuleNfa(parent).SymbolsOnAcceptingPaths(&InhabitedSymbols());
}

std::optional<std::vector<int>> Dtd::ShortestUsableWord(int parent) const {
  return RuleNfa(parent).ShortestAcceptedOver(&InhabitedSymbols());
}

std::optional<std::vector<int>> Dtd::UsableWordContaining(int parent,
                                                          int child) const {
  // Product of the rule NFA with the two-state automaton "saw `child` at
  // least once", then a shortest accepted word.
  const Nfa& base = RuleNfa(parent);
  Nfa seen(num_symbols_);
  int s0 = seen.AddState(/*initial=*/true, /*final=*/false);
  int s1 = seen.AddState(/*initial=*/false, /*final=*/true);
  for (int sym = 0; sym < num_symbols_; ++sym) {
    seen.AddTransition(s0, sym, sym == child ? s1 : s0);
    seen.AddTransition(s1, sym, s1);
  }
  Nfa prod = Nfa::Intersection(base, seen);
  return prod.ShortestAcceptedOver(&InhabitedSymbols());
}

}  // namespace xtc
