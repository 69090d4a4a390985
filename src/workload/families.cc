#include "src/workload/families.h"

#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace xtc {
namespace {

void MustSetRule(Transducer* t, std::string_view state,
                 std::string_view symbol, std::string_view rhs) {
  Status s = t->SetRuleFromString(state, symbol, rhs);
  XTC_CHECK_MSG(s.ok(), s.ToString().c_str());
}

void MustSetDtdRule(Dtd* d, std::string_view symbol, std::string_view regex) {
  Status s = d->SetRule(symbol, regex);
  XTC_CHECK_MSG(s.ok(), s.ToString().c_str());
}

PaperExample MakeFilterFamily(int n, bool failing) {
  XTC_CHECK_GE(n, 1);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("root");
  ex.alphabet->Intern("title");
  for (int i = 0; i < n; ++i) {
    ex.alphabet->Intern("sec" + std::to_string(i));
  }
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("root"));
  MustSetDtdRule(ex.din.get(), "root", "sec0+");
  for (int i = 0; i < n; ++i) {
    std::string rule = "title";
    if (i + 1 < n) rule += " sec" + std::to_string(i + 1) + "*";
    MustSetDtdRule(ex.din.get(), "sec" + std::to_string(i), rule);
  }
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(q0);
  MustSetRule(ex.transducer.get(), "q0", "root", "root(q)");
  MustSetRule(ex.transducer.get(), "q", "title", "title");
  for (int i = 0; i < n; ++i) {
    // Recursive deletion without copying: skip every section level.
    MustSetRule(ex.transducer.get(), "q", "sec" + std::to_string(i), "q");
  }
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("root"));
  // Every sec0 contributes at least one title; the failing variant demands
  // at least two titles overall, violated by the single-section document.
  MustSetDtdRule(ex.dout.get(), "root", failing ? "title title title*"
                                                : "title+");
  return ex;
}

}  // namespace

PaperExample FilterFamily(int n) { return MakeFilterFamily(n, false); }

PaperExample FailingFilterFamily(int n) { return MakeFilterFamily(n, true); }

PaperExample WidthFamily(int c, int k) {
  XTC_CHECK_GE(c, 1);
  XTC_CHECK_GE(k, 0);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  ex.alphabet->Intern("a");
  ex.alphabet->Intern("b");
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.din.get(), "r", "a?");
  MustSetDtdRule(ex.din.get(), "a", "a?");
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  for (int i = 1; i <= k; ++i) {
    ex.transducer->AddState("d" + std::to_string(i));
  }
  ex.transducer->AddState("w");
  ex.transducer->AddState("m");
  ex.transducer->SetInitial(q0);
  std::string first = k >= 1 ? "d1" : "w";
  MustSetRule(ex.transducer.get(), "q0", "r", "r(" + first + ")");
  for (int i = 1; i <= k; ++i) {
    // Each chain state deletes with width two: K doubles per level.
    std::string next = i == k ? "w" : "d" + std::to_string(i + 1);
    MustSetRule(ex.transducer.get(), "d" + std::to_string(i), "a",
                next + " " + next);
  }
  std::string copies;
  for (int i = 0; i < c; ++i) copies += (i ? " m" : "m");
  MustSetRule(ex.transducer.get(), "w", "a", "b(" + copies + ")");
  MustSetRule(ex.transducer.get(), "m", "a", "b");
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.dout.get(), "r", "b*");
  MustSetDtdRule(ex.dout.get(), "b", "b*");
  return ex;
}

PaperExample RelabFamily(int n) {
  XTC_CHECK_GE(n, 1);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  ex.alphabet->Intern("a");
  ex.alphabet->Intern("b");
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  std::string word_a;
  std::string word_b;
  for (int i = 0; i < n; ++i) {
    word_a += (i ? " a" : "a");
    word_b += (i ? " b" : "b");
  }
  MustSetDtdRule(ex.din.get(), "r", word_a);
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(q0);
  MustSetRule(ex.transducer.get(), "q0", "r", "r(q)");
  MustSetRule(ex.transducer.get(), "q", "a", "b(q)");
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.dout.get(), "r", word_b);
  return ex;
}

PaperExample RePlusCopyFamily(int n) {
  XTC_CHECK_GE(n, 1);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  ex.alphabet->Intern("a");
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.din.get(), "r", "a+");
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(q0);
  std::string copies;
  for (int i = 0; i < n; ++i) copies += (i ? " q" : "q");
  MustSetRule(ex.transducer.get(), "q0", "r", "r(" + copies + ")");
  MustSetRule(ex.transducer.get(), "q", "a", "a");
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.dout.get(), "r", "a+");
  return ex;
}

PaperExample RePlusVastChainFamily(int d) {
  XTC_CHECK_GE(d, 1);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  auto x = [](int i) { return "x" + std::to_string(i); };
  auto y = [](int i) { return "y" + std::to_string(i); };
  for (int i = 1; i <= d; ++i) {
    ex.alphabet->Intern(x(i));
    ex.alphabet->Intern(y(i));
  }
  const int r = *ex.alphabet->Find("r");
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), r);
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), r);
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  ex.transducer->SetInitial(ex.transducer->AddState("q"));
  MustSetRule(ex.transducer.get(), "q", "r", "r(q)");
  for (int i = 0; i < d; ++i) {
    const std::string kids = x(i + 1) + "+ " + y(i + 1) + "+";
    const std::string bottom = x(i + 1) + " " + y(i + 1);
    for (const std::string& parent :
         i == 0 ? std::vector<std::string>{"r"}
                : std::vector<std::string>{x(i), y(i)}) {
      MustSetDtdRule(ex.din.get(), parent, kids);
      MustSetDtdRule(ex.dout.get(), parent, i + 1 == d ? bottom : kids);
    }
  }
  for (int i = 1; i <= d; ++i) {
    MustSetRule(ex.transducer.get(), "q", x(i), x(i) + "(q)");
    MustSetRule(ex.transducer.get(), "q", y(i), y(i) + "(q)");
  }
  return ex;
}

PaperExample RePlusDeletingFamily(int m, int copies, bool failing) {
  XTC_CHECK_GE(m, 1);
  XTC_CHECK_GE(copies, 1);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  ex.alphabet->Intern("a");
  std::vector<std::string> blocks;
  for (int i = 1; i <= m; ++i) {
    const std::string b = "b" + std::to_string(i);
    ex.alphabet->Intern(b);
    blocks.push_back(b + "+");
  }
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) out += (out.empty() ? "" : " ") + p;
    return out;
  };
  const std::string word = join(blocks);
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.din.get(), "r", "a");
  MustSetDtdRule(ex.din.get(), "a", word);
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(q0);
  std::vector<std::string> states(static_cast<std::size_t>(copies), "q");
  MustSetRule(ex.transducer.get(), "q0", "r", "r(q)");
  MustSetRule(ex.transducer.get(), "q", "a", join(states));
  for (int i = 1; i <= m; ++i) {
    const std::string b = "b" + std::to_string(i);
    MustSetRule(ex.transducer.get(), "q", b, b);
  }
  std::vector<std::string> out(static_cast<std::size_t>(copies), word);
  if (failing) {
    std::swap(blocks.front(), blocks.back());
    out.back() = join(blocks);
  }
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.dout.get(), "r", join(out));
  return ex;
}

PaperExample XPathChainFamily(int n) {
  XTC_CHECK_GE(n, 1);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("title");
  for (int i = 0; i <= n; ++i) {
    ex.alphabet->Intern("c" + std::to_string(i));
  }
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("c0"));
  for (int i = 0; i < n; ++i) {
    MustSetDtdRule(ex.din.get(), "c" + std::to_string(i),
                   "c" + std::to_string(i + 1));
  }
  MustSetDtdRule(ex.din.get(), "c" + std::to_string(n), "title");
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(q0);
  std::string pattern = ".";
  for (int i = 1; i <= n; ++i) pattern += "/c" + std::to_string(i);
  pattern += "/title";
  MustSetRule(ex.transducer.get(), "q0", "c0", "c0(<q, " + pattern + ">)");
  MustSetRule(ex.transducer.get(), "q", "title", "title");
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("c0"));
  MustSetDtdRule(ex.dout.get(), "c0", "title");
  return ex;
}

PaperExample NfaSchemaFamily(int n) {
  XTC_CHECK_GE(n, 1);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  ex.alphabet->Intern("a");
  ex.alphabet->Intern("b");
  // (a|b)* a (a|b)^{n-1}: determinizing needs 2^n states.
  std::string lang = "(a|b)* a";
  for (int i = 1; i < n; ++i) lang += " (a|b)";
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.din.get(), "r", lang);
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(q0);
  MustSetRule(ex.transducer.get(), "q0", "r", "r(q)");
  MustSetRule(ex.transducer.get(), "q", "a", "a");
  MustSetRule(ex.transducer.get(), "q", "b", "b");
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.dout.get(), "r", lang);
  return ex;
}

PaperExample CoprimeCounterFamily(int k) {
  static constexpr int kPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  XTC_CHECK_GE(k, 1);
  XTC_CHECK_LE(k, static_cast<int>(std::size(kPrimes)));
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  ex.alphabet->Intern("d");
  ex.alphabet->Intern("x");
  for (int i = 1; i <= k; ++i) ex.alphabet->Intern("s" + std::to_string(i));
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.din.get(), "r", "d");
  MustSetDtdRule(ex.din.get(), "d", "x*");
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  int q0 = ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(q0);
  MustSetRule(ex.transducer.get(), "q0", "r", "r(q)");
  MustSetRule(ex.transducer.get(), "q", "d", "q");
  MustSetRule(ex.transducer.get(), "q", "x", "x");
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), *ex.alphabet->Find("r"));
  MustSetDtdRule(ex.dout.get(), "r", "x*");
  for (int i = 1; i <= k; ++i) {
    std::string period = "x";
    for (int j = 1; j < kPrimes[i - 1]; ++j) period += " x";
    MustSetDtdRule(ex.dout.get(), "s" + std::to_string(i),
                   "(" + period + ")*");
  }
  return ex;
}

}  // namespace xtc
