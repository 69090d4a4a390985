#include "src/td/transducer.h"

#include <cctype>

#include "src/base/logging.h"
#include "src/xpath/parser.h"

namespace xtc {

RhsNode RhsNode::Label(int label, std::vector<RhsNode> children) {
  RhsNode n;
  n.kind = Kind::kLabel;
  n.label = label;
  n.children = std::move(children);
  return n;
}

RhsNode RhsNode::State(int state) {
  RhsNode n;
  n.kind = Kind::kState;
  n.state = state;
  return n;
}

RhsNode RhsNode::Select(int state, int selector) {
  RhsNode n;
  n.kind = Kind::kSelect;
  n.state = state;
  n.selector = selector;
  return n;
}

int Transducer::AddState(std::string name) {
  XTC_CHECK_MSG(state_ids_.find(name) == state_ids_.end(),
                "duplicate state name");
  int id = num_states();
  state_ids_.emplace(name, id);
  state_names_.push_back(std::move(name));
  return id;
}

const std::string& Transducer::StateName(int state) const {
  XTC_CHECK(state >= 0 && state < num_states());
  return state_names_[static_cast<std::size_t>(state)];
}

std::optional<int> Transducer::FindState(std::string_view name) const {
  auto it = state_ids_.find(name);
  if (it == state_ids_.end()) return std::nullopt;
  return it->second;
}

void Transducer::SetInitial(int state) {
  XTC_CHECK(state >= 0 && state < num_states());
  initial_ = state;
}

int Transducer::AddSelector(Selector selector) {
  XTC_CHECK((selector.pattern != nullptr) != selector.dfa.has_value());
  selectors_.push_back(std::move(selector));
  return static_cast<int>(selectors_.size()) - 1;
}

const Selector& Transducer::selector(int id) const {
  XTC_CHECK(id >= 0 && id < num_selectors());
  return selectors_[static_cast<std::size_t>(id)];
}

void Transducer::CheckRhs(const RhsHedge& rhs, bool top_level) const {
  (void)top_level;
  for (const RhsNode& n : rhs) {
    switch (n.kind) {
      case RhsNode::Kind::kLabel:
        XTC_CHECK(n.label >= 0);
        CheckRhs(n.children, /*top_level=*/false);
        break;
      case RhsNode::Kind::kState:
        XTC_CHECK(n.state >= 0 && n.state < num_states());
        XTC_CHECK_MSG(n.children.empty(), "states occur at leaves only");
        break;
      case RhsNode::Kind::kSelect:
        XTC_CHECK(n.state >= 0 && n.state < num_states());
        XTC_CHECK(n.selector >= 0 && n.selector < num_selectors());
        XTC_CHECK_MSG(n.children.empty(), "selectors occur at leaves only");
        break;
    }
  }
}

void Transducer::SetRule(int state, int symbol, RhsHedge rhs) {
  XTC_CHECK(state >= 0 && state < num_states());
  XTC_CHECK(symbol >= 0);
  CheckRhs(rhs, /*top_level=*/true);
  rules_.insert_or_assign({state, symbol}, std::move(rhs));
}

const RhsHedge* Transducer::rule(int state, int symbol) const {
  auto it = rules_.find({state, symbol});
  return it == rules_.end() ? nullptr : &it->second;
}

std::size_t Transducer::Size() const {
  std::size_t total = static_cast<std::size_t>(num_states()) +
                      static_cast<std::size_t>(alphabet_->size());
  for (const auto& [key, rhs] : rules_) {
    std::vector<const RhsNode*> stack;
    for (const RhsNode& n : rhs) stack.push_back(&n);
    while (!stack.empty()) {
      const RhsNode* n = stack.back();
      stack.pop_back();
      ++total;
      for (const RhsNode& c : n->children) stack.push_back(&c);
    }
  }
  return total;
}

bool Transducer::HasSelectors() const {
  std::vector<const RhsNode*> stack;
  for (const auto& [key, rhs] : rules_) {
    for (const RhsNode& n : rhs) stack.push_back(&n);
    while (!stack.empty()) {
      const RhsNode* n = stack.back();
      stack.pop_back();
      if (n->kind == RhsNode::Kind::kSelect) return true;
      for (const RhsNode& c : n->children) stack.push_back(&c);
    }
  }
  return false;
}

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '#' ||
         c == '$' || c == '.' || c == ':' || c == '-';
}

class RhsParser {
 public:
  RhsParser(std::string_view text, Transducer* t) : text_(text), t_(t) {}

  StatusOr<RhsHedge> Parse() {
    RhsHedge hedge;
    SkipSpace();
    while (pos_ < text_.size()) {
      StatusOr<RhsNode> n = ParseNode();
      if (!n.ok()) return n.status();
      hedge.push_back(*std::move(n));
      SkipSpace();
    }
    return hedge;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  StatusOr<RhsNode> ParseNode() {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '<') {
      return ParseSelector();
    }
    std::size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    if (pos_ == start) {
      return InvalidArgumentError("expected a name in rule rhs at position " +
                                  std::to_string(pos_));
    }
    std::string_view name = text_.substr(start, pos_ - start);
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '(') {
      ++pos_;
      std::vector<RhsNode> children;
      SkipSpace();
      while (pos_ < text_.size() && text_[pos_] != ')') {
        StatusOr<RhsNode> c = ParseNode();
        if (!c.ok()) return c;
        children.push_back(*std::move(c));
        SkipSpace();
      }
      if (pos_ >= text_.size()) return InvalidArgumentError("missing ')'");
      ++pos_;
      return RhsNode::Label(t_->alphabet()->Intern(name), std::move(children));
    }
    // Leaf: a state name resolves to a state, anything else to a label.
    std::optional<int> state = t_->FindState(name);
    if (state.has_value()) return RhsNode::State(*state);
    return RhsNode::Label(t_->alphabet()->Intern(name));
  }

  StatusOr<RhsNode> ParseSelector() {
    ++pos_;  // consume '<'
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    std::optional<int> state = t_->FindState(text_.substr(start, pos_ - start));
    if (!state.has_value()) {
      return InvalidArgumentError("unknown state in selector");
    }
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != ',') {
      return InvalidArgumentError("expected ',' in selector '<q, P>'");
    }
    ++pos_;
    std::size_t pstart = pos_;
    while (pos_ < text_.size() && text_[pos_] != '>') ++pos_;
    if (pos_ >= text_.size()) return InvalidArgumentError("missing '>'");
    StatusOr<XPathPatternPtr> pattern =
        ParseXPath(text_.substr(pstart, pos_ - pstart), t_->alphabet());
    if (!pattern.ok()) return pattern.status();
    ++pos_;  // consume '>'
    int sel = t_->AddSelector(Selector{*pattern, std::nullopt});
    return RhsNode::Select(*state, sel);
  }

  std::string_view text_;
  Transducer* t_;
  std::size_t pos_ = 0;
};

}  // namespace

Status Transducer::SetRuleFromString(std::string_view state_name,
                                     std::string_view symbol_name,
                                     std::string_view rhs_text) {
  std::optional<int> state = FindState(state_name);
  if (!state.has_value()) {
    return InvalidArgumentError("unknown state '" + std::string(state_name) +
                                "'");
  }
  int symbol = alphabet_->Intern(symbol_name);
  StatusOr<RhsHedge> rhs = RhsParser(rhs_text, this).Parse();
  if (!rhs.ok()) return rhs.status();
  SetRule(*state, symbol, *std::move(rhs));
  return Status::Ok();
}

namespace {

void RhsNodeToString(const Transducer& t, const RhsNode& n, std::string* out) {
  switch (n.kind) {
    case RhsNode::Kind::kLabel:
      out->append(t.alphabet()->Name(n.label));
      if (!n.children.empty()) {
        out->push_back('(');
        for (std::size_t i = 0; i < n.children.size(); ++i) {
          if (i > 0) out->push_back(' ');
          RhsNodeToString(t, n.children[i], out);
        }
        out->push_back(')');
      }
      break;
    case RhsNode::Kind::kState:
      out->append(t.StateName(n.state));
      break;
    case RhsNode::Kind::kSelect: {
      out->push_back('<');
      out->append(t.StateName(n.state));
      out->append(", ");
      const Selector& sel = t.selector(n.selector);
      if (sel.pattern != nullptr) {
        out->append(PatternToString(*sel.pattern, *t.alphabet()));
      } else {
        out->append("dfa#" + std::to_string(n.selector));
      }
      out->push_back('>');
      break;
    }
  }
}

}  // namespace

std::string Transducer::RhsToString(const RhsHedge& rhs) const {
  std::string out;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    if (i > 0) out.push_back(' ');
    RhsNodeToString(*this, rhs[i], &out);
  }
  return out;
}

}  // namespace xtc
