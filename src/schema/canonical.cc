#include "src/schema/canonical.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/fa/regex.h"

namespace xtc {
namespace {

void AppendNfa(const Nfa& nfa, std::string* out) {
  out->append("nfa ");
  out->append(std::to_string(nfa.num_states()));
  for (int s = 0; s < nfa.num_states(); ++s) {
    out->push_back(' ');
    out->push_back(nfa.initial(s) ? 'i' : '.');
    out->push_back(nfa.final(s) ? 'f' : '.');
    // Edge insertion order is not part of the automaton's identity.
    std::vector<std::pair<int, int>> edges = nfa.Edges(s);
    std::sort(edges.begin(), edges.end());
    for (const auto& [symbol, target] : edges) {
      out->push_back(' ');
      out->append(std::to_string(symbol));
      out->push_back('>');
      out->append(std::to_string(target));
    }
    out->push_back(';');
  }
}

// Renders a kDfa rule from the NFA mirror SetRuleDfa derives: Compile()
// minimizes the rule's DFA in place but never touches the mirror. The text
// is the one the installed DFA itself renders to (ToNfa keeps state ids and
// lists each state's edges by symbol).
void AppendDfa(const Nfa& mirror, std::string* out) {
  int initial = Dfa::kDead;
  for (int s = 0; s < mirror.num_states(); ++s) {
    if (mirror.initial(s)) initial = s;
  }
  out->append("dfa ");
  out->append(std::to_string(mirror.num_states()));
  out->append(" init ");
  out->append(std::to_string(initial));
  for (int s = 0; s < mirror.num_states(); ++s) {
    out->push_back(' ');
    out->push_back(mirror.final(s) ? 'f' : '.');
    for (const auto& [symbol, target] : mirror.Edges(s)) {
      out->push_back(' ');
      out->append(std::to_string(symbol));
      out->push_back('>');
      out->append(std::to_string(target));
    }
    out->push_back(';');
  }
}

}  // namespace

std::string CanonicalDtdText(const Dtd& dtd) {
  const Alphabet& alphabet = *dtd.alphabet();
  std::string out = "dtd-v1\nalphabet";
  // Only the id space the Dtd snapshotted matters; names interned after
  // construction cannot occur in any rule.
  for (int s = 0; s < dtd.num_symbols(); ++s) {
    out.push_back(' ');
    out.append(alphabet.Name(s));
  }
  out.append("\nstart ");
  out.append(alphabet.Name(dtd.start()));
  out.push_back('\n');

  std::vector<int> declared;
  for (int s = 0; s < dtd.num_symbols(); ++s) {
    if (dtd.HasRule(s)) declared.push_back(s);
  }
  std::sort(declared.begin(), declared.end(),
            [&](int a, int b) { return alphabet.Name(a) < alphabet.Name(b); });
  for (int s : declared) {
    out.append("rule ");
    out.append(alphabet.Name(s));
    out.append(" = ");
    switch (dtd.rule_kind(s)) {
      case Dtd::RuleKind::kEpsilonDefault:
        out.append("%");
        break;
      case Dtd::RuleKind::kRePlus:
      case Dtd::RuleKind::kDetRegex:
      case Dtd::RuleKind::kNondetRegex:
        // Re-rendered from the AST: whitespace/comma noise canonicalizes,
        // structural differences survive.
        out.append(RegexToString(*dtd.RuleRegex(s), alphabet));
        break;
      case Dtd::RuleKind::kNfa:
        AppendNfa(dtd.RuleNfa(s), &out);
        break;
      case Dtd::RuleKind::kDfa:
        AppendDfa(dtd.RuleNfa(s), &out);
        break;
    }
    out.push_back('\n');
  }
  return out;
}

std::uint64_t StructuralDtdHash(const Dtd& dtd) {
  return HashBytes(CanonicalDtdText(dtd));
}

}  // namespace xtc
