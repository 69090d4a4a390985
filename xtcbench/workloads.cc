#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/base/hash.h"
#include "src/service/replay.h"
#include "src/workload/families.h"

namespace xbench {
namespace {

using xtc::ServiceOp;
using xtc::ServiceRequest;

// splitmix64: a small, portable generator, so one seed gives one pool on
// every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }

 private:
  std::uint64_t state_;
};

// Independent streams per purpose, so changing how one part of a workload
// draws does not reshuffle the others.
Rng Stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 0x2545f4914f6cdd1dull ^ (purpose + 1) * 0x9e3779b97f4a7c15ull);
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

std::string Hex12(std::uint64_t salt) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%012llx",
                static_cast<unsigned long long>(salt & 0xffffffffffffull));
  return buf;
}

// A fixed-width symbol name that no family uses; adding it to d_in as an
// unreachable epsilon rule changes the request's universe (so its content
// address) without changing any verdict or engine path.
std::string SaltName(std::uint64_t salt) { return "x" + Hex12(salt); }

void AddUnusedSymbol(ServiceRequest* request, std::uint64_t salt) {
  request->din.rules.emplace_back(SaltName(salt), "%");
}

// A copying, recursively deleting transducer over DTD(RE+) schemas: its
// deletion path width is unbounded, so the front door answers it with the
// Section 5 engine (Theorem 37). d_in: r -> a, a -> b1+ ... bm+; the
// transducer deletes `a` and copies its children `copies` times; d_out
// accepts the copies, so the instance typechecks.
ServiceRequest RePlusDeletingRequest(int m, int copies) {
  ServiceRequest request;
  request.op = ServiceOp::kTypecheck;
  std::string word;
  for (int i = 1; i <= m; ++i) {
    word += (i > 1 ? " b" : "b") + std::to_string(i) + "+";
  }
  request.din.start = "r";
  request.din.rules = {{"r", "a"}, {"a", word}};
  std::string out_word;
  for (int c = 0; c < copies; ++c) out_word += (c > 0 ? " " : "") + word;
  request.dout.start = "r";
  request.dout.rules = {{"r", out_word}};
  request.transducer.states = {"q0", "q"};
  request.transducer.initial = "q0";
  std::string copy_rhs;
  for (int c = 0; c < copies; ++c) copy_rhs += (c > 0 ? " q" : "q");
  request.transducer.rules.push_back({"q0", "r", "r(q)"});
  request.transducer.rules.push_back({"q", "a", copy_rhs});
  for (int i = 1; i <= m; ++i) {
    const std::string b = "b" + std::to_string(i);
    request.transducer.rules.push_back({"q", b, b});
  }
  return request;
}

// NfaSchemaFamily(n) (DTD(NFA) schemas) for the Theorem 20 engine, whose
// product emptiness the lazy nta engine decides; its transducer is a
// relabeling. The copying state is named `state`: a new name is a new
// transducer content address, so a lazy-table key the cache has never seen,
// and the engine explores the product instead of answering from a completed
// table. The name changes neither the verdict nor the exploration.
xtc::StatusOr<ServiceRequest> NfaRelabRequest(int n, const std::string& state) {
  XTC_ASSIGN_OR_RETURN(ServiceRequest request,
                       xtc::TypecheckRequestFromExample(xtc::NfaSchemaFamily(n)));
  request.engine = xtc::TypecheckEngine::kDelRelab;
  request.transducer.states = {"q0", state};
  request.transducer.initial = "q0";
  request.transducer.rules = {
      {"q0", "r", "r(" + state + ")"}, {state, "a", "a"}, {state, "b", "b"}};
  return request;
}

// Builds the pool: key k's template repeat[k] times, in seeded order, with
// ids assigned by position. Set-up prewarms each key's first line.
void FillPool(Workload* w, const std::vector<ServiceRequest>& templates,
              const std::vector<int>& repeat, Rng* order) {
  std::vector<int> keys;
  for (int k = 0; k < static_cast<int>(templates.size()); ++k) {
    for (int r = 0; r < repeat[k]; ++r) keys.push_back(k);
  }
  Shuffle(&keys, order);
  std::vector<bool> warmed(templates.size(), false);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ServiceRequest request = templates[keys[i]];
    request.id = static_cast<std::int64_t>(i + 1);
    w->pool.push_back({xtc::ServiceRequestToJson(request), keys[i]});
    if (!warmed[keys[i]]) {
      warmed[keys[i]] = true;
      w->prewarm.push_back(i);
    }
  }
}

xtc::StatusOr<Workload> HotTypecheck(std::uint64_t seed) {
  Workload w;
  w.classes = {"filter", "failing", "relab", "xpath"};
  Rng salts = Stream(seed, 1);
  std::vector<ServiceRequest> templates;
  for (int cls = 0; cls < 4; ++cls) {
    for (int n = 6; n <= 13; ++n) {
      auto ex = std::make_shared<xtc::PaperExample>(
          cls == 0   ? xtc::FilterFamily(n)
          : cls == 1 ? xtc::FailingFilterFamily(n)
          : cls == 2 ? xtc::RelabFamily(n)
                     : xtc::XPathChainFamily(n));
      for (int variant = 0; variant < 2; ++variant) {
        XTC_ASSIGN_OR_RETURN(ServiceRequest request, xtc::TypecheckRequestFromExample(*ex));
        AddUnusedSymbol(&request, salts.Next());
        // Relabelings go to the Theorem 20 engine, whose completed lazy
        // tables the compile cache keeps and later requests resume from.
        if (cls == 2) request.engine = xtc::TypecheckEngine::kDelRelab;
        KeyInfo key;
        key.cls = cls;
        key.expect = cls != 1;
        if (cls == 1) key.instance = ex;
        w.keys.push_back(key);
        templates.push_back(std::move(request));
      }
    }
  }
  // Per key and pass: the classes sort by cost as xpath < filter < failing
  // < relab, and these counts put p50 a quarter of the way into the
  // failing mode and p95 near the middle of the relab mode.
  const int repeat_of[] = {40, 128, 32, 56};
  std::vector<int> repeat;
  for (const KeyInfo& key : w.keys) repeat.push_back(repeat_of[key.cls]);
  Rng order = Stream(seed, 2);
  FillPool(&w, templates, repeat, &order);
  return w;
}

xtc::StatusOr<Workload> EngineHeavy(std::uint64_t seed) {
  Workload w;
  w.classes = {"width", "replus", "nfa"};
  enum { kWidth, kRePlus, kNfa };
  Rng salts = Stream(seed, 1);
  // Keys 0 and 1: two salted copies of the width instance; key 2: the RE+
  // instance; key 3: every nfa line (each poses its own transducer, see
  // NfaRelabRequest, but they share one expected answer).
  std::vector<ServiceRequest> templates;
  for (int cls : {kWidth, kWidth, kRePlus}) {
    ServiceRequest request;
    if (cls == kWidth) {
      XTC_ASSIGN_OR_RETURN(request, xtc::TypecheckRequestFromExample(xtc::WidthFamily(7, 7)));
    } else {
      request = RePlusDeletingRequest(/*m=*/11, /*copies=*/8);
    }
    AddUnusedSymbol(&request, salts.Next());
    templates.push_back(std::move(request));
  }
  const std::uint64_t nfa_salt = salts.Next();
  for (int cls : {kWidth, kWidth, kRePlus, kNfa}) {
    KeyInfo key;
    key.cls = cls;
    key.expect = true;
    w.keys.push_back(key);
  }
  // One pass: 76 width, 26 replus and 154 nfa lines in seeded order. The
  // classes sort by cost as width < nfa < replus, so p50 falls inside the
  // nfa mode (about a third of the way into it), and replus, one tenth of
  // the traffic, puts p95 near its own median rather than in the tail of
  // any class.
  std::vector<int> slots;
  for (int i = 0; i < 76; ++i) slots.push_back(i % 2);
  for (int i = 0; i < 26; ++i) slots.push_back(2);
  for (int i = 0; i < 154; ++i) slots.push_back(3);
  Rng order = Stream(seed, 2);
  Shuffle(&slots, &order);
  std::vector<bool> warmed(w.keys.size(), false);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const int k = slots[i];
    PoolLine line;
    line.key = k;
    if (k < 3) {
      ServiceRequest request = templates[k];
      request.id = static_cast<std::int64_t>(i + 1);
      line.line = xtc::ServiceRequestToJson(request);
    } else {
      const std::string state = "q" + Hex12(RequestSalt(seed, i));
      XTC_ASSIGN_OR_RETURN(ServiceRequest request, NfaRelabRequest(2, state));
      AddUnusedSymbol(&request, nfa_salt);
      request.id = static_cast<std::int64_t>(i + 1);
      line.line = xtc::ServiceRequestToJson(request);
      for (std::size_t p = line.line.find(state); p != std::string::npos;
           p = line.line.find(state, p + 1)) {
        line.salt_at.push_back(p + 1);
      }
    }
    if (!warmed[k]) {
      // Set-up serves the first nfa line with a salt of its own, so it
      // compiles the shared schemas without caching any timed line's table.
      warmed[k] = true;
      w.prewarm.push_back(i);
    }
    w.pool.push_back(std::move(line));
  }
  // Every nfa request leaves a transducer and a lazy table in the cache, so
  // under xtcd's 64 MiB budget the live heap would grow for the whole run
  // and peak_live_mb would count requests. A 512 KiB budget in one shard
  // holds the hot width, RE+ and nfa schema artifacts with room to spare;
  // LRU eviction drops the oldest nfa entries, so the heap levels off within
  // the first two seconds of the timed loop.
  w.service.cache.max_bytes = std::size_t{512} << 10;
  w.service.cache.shards = 1;
  return w;
}

xtc::StatusOr<Workload> ColdCompile(std::uint64_t seed) {
  Workload w;
  w.classes = {"filter", "relab", "xpath", "nfa"};
  const std::vector<std::vector<int>> sizes = {
      {7, 8, 9, 10}, {9, 10, 11, 12}, {6, 7, 8, 9}, {3, 4}};
  constexpr int kLines = 1024;
  // Equal counts of every (class, size) pair, in seeded order, so the mix
  // of costs is the same for every seed.
  std::vector<std::pair<int, int>> shapes;
  for (int i = 0; i < kLines; ++i) {
    const int cls = i % 4;
    shapes.emplace_back(cls, sizes[cls][(i / 4) % sizes[cls].size()]);
  }
  Rng order = Stream(seed, 2);
  Shuffle(&shapes, &order);
  Rng salts = Stream(seed, 1);
  for (int i = 0; i < kLines; ++i) {
    const auto [cls, n] = shapes[i];
    XTC_ASSIGN_OR_RETURN(
        ServiceRequest request,
        xtc::TypecheckRequestFromExample(cls == 0   ? xtc::FilterFamily(n)
                      : cls == 1 ? xtc::RelabFamily(n)
                      : cls == 2 ? xtc::XPathChainFamily(n)
                                 : xtc::NfaSchemaFamily(n)));
    // A fresh salt per line: every line is its own key, so every lookup
    // misses once the pool has cycled past the cache's universe cap.
    AddUnusedSymbol(&request, salts.Next());
    request.id = i + 1;
    KeyInfo key;
    key.cls = cls;
    key.expect = true;
    w.keys.push_back(key);
    w.pool.push_back({xtc::ServiceRequestToJson(request), i});
  }
  // Set-up runs the pool's last lines, so the universe registry is already
  // full and evicting when timing starts at line 0.
  for (int i = kLines - 256; i < kLines; ++i) w.prewarm.push_back(i);
  return w;
}

// A structure-only document over {root, section, item} with sections nested
// at most `max_depth` deep (the copying transducer's output grows as
// 2^depth), exactly `nodes` elements, and a seeded arrangement.
struct DocNode {
  bool section = false;
  std::vector<DocNode> children;
};

void RenderXml(const DocNode& node, const char* name, std::string* out) {
  if (node.children.empty()) {
    *out += "<";
    *out += name;
    *out += "/>";
    return;
  }
  *out += "<";
  *out += name;
  *out += ">";
  for (const DocNode& child : node.children) {
    RenderXml(child, child.section ? "section" : "item", out);
  }
  *out += "</";
  *out += name;
  *out += ">";
}

void GrowDoc(DocNode* node, int depth, int max_depth, int* budget, Rng* rng) {
  const int width = 1 + static_cast<int>(rng->Below(6));
  for (int i = 0; i < width && *budget > 0; ++i) {
    --*budget;
    DocNode child;
    child.section = depth < max_depth && rng->Below(3) == 0;
    if (child.section) GrowDoc(&child, depth + 1, max_depth, budget, rng);
    node->children.push_back(std::move(child));
  }
}

std::string GenerateDoc(int nodes, Rng* rng) {
  DocNode root;
  root.section = true;
  int budget = nodes - 1;
  while (budget > 0) GrowDoc(&root, 1, /*max_depth=*/4, &budget, rng);
  std::string out;
  RenderXml(root, "root", &out);
  return out;
}

// Replaces the k-th leaf item with an item that has a child: item -> eps
// makes the document invalid, and nothing else changes.
std::string MutateDoc(const std::string& doc, Rng* rng) {
  std::vector<std::size_t> leaves;
  for (std::size_t p = doc.find("<item/>"); p != std::string::npos;
       p = doc.find("<item/>", p + 1)) {
    leaves.push_back(p);
  }
  const std::size_t at = leaves[rng->Below(leaves.size())];
  return doc.substr(0, at) + "<item><item/></item>" + doc.substr(at + 7);
}

xtc::StatusOr<Workload> Documents(std::uint64_t seed) {
  Workload w;
  w.classes = {"validate",         "validate_stream",
               "transform",        "transform_copy",
               "transform_stream", "transform_stream_copy"};
  enum {
    kValidate,
    kValidateStream,
    kTransform,
    kTransformCopy,
    kTransformStream,
    kTransformStreamCopy
  };
  const int sizes[] = {1500, 2000, 2500, 3000, 1500, 2000, 2500, 3000};
  // The documents themselves are fixed (the copying transducer's cost
  // follows their nesting); the seed picks the mutations and the order.
  Rng shapes = Stream(0, 4);
  Rng mutations = Stream(seed, 5);
  std::vector<std::string> invalid;
  for (int size : sizes) {
    w.docs.push_back(GenerateDoc(size, &shapes));
    invalid.push_back(MutateDoc(w.docs.back(), &mutations));
  }
  // The copying transforms cost three to four times the other requests,
  // the streaming one most. Per document and pass the DOM copy is served
  // once, the streaming copy twice and every other request three times, so
  // p50 falls inside the mode the cheap classes share and p95 near the
  // middle of the streaming copy's mode, not in the tail of either.
  std::vector<ServiceRequest> templates;
  std::vector<int> repeat;
  auto add = [&](int cls, ServiceRequest request, KeyInfo key) {
    key.cls = cls;
    key.op = request.op;
    w.keys.push_back(key);
    templates.push_back(std::move(request));
    repeat.push_back(cls == kTransformCopy         ? 1
                     : cls == kTransformStreamCopy ? 2
                                                   : 3);
  };
  for (int d = 0; d < static_cast<int>(w.docs.size()); ++d) {
    for (int valid = 0; valid < 2; ++valid) {
      const std::string& doc = valid ? w.docs[d] : invalid[d];
      ServiceRequest dom;
      dom.op = ServiceOp::kValidate;
      dom.schema = xtc::StreamDocSchemaSpec();
      dom.tree = doc;
      dom.format = xtc::DocFormat::kXml;
      KeyInfo key;
      key.expect = valid != 0;
      add(kValidate, dom, key);
      ServiceRequest stream;
      stream.op = ServiceOp::kValidateStream;
      stream.schema = xtc::StreamDocSchemaSpec();
      stream.doc = doc;
      add(kValidateStream, stream, key);
    }
    for (int copying = 0; copying < 2; ++copying) {
      const xtc::TransducerSpec spec = copying
                                           ? xtc::StreamDocCopyTransducerSpec()
                                           : xtc::StreamDocTransducerSpec();
      KeyInfo key;
      if (copying) {
        key.output_group = d;
      } else {
        key.identity_doc = d;
      }
      ServiceRequest dom;
      dom.op = ServiceOp::kTransform;
      dom.transducer = spec;
      dom.tree = w.docs[d];
      dom.format = xtc::DocFormat::kXml;
      add(copying ? kTransformCopy : kTransform, dom, key);
      ServiceRequest stream;
      stream.op = ServiceOp::kTransformStream;
      stream.transducer = spec;
      stream.doc = w.docs[d];
      add(copying ? kTransformStreamCopy : kTransformStream, stream, key);
    }
  }
  Rng order = Stream(seed, 2);
  FillPool(&w, templates, repeat, &order);
  return w;
}

}  // namespace

xtc::StatusOr<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed) {
  xtc::StatusOr<Workload> w = xtc::InvalidArgumentError(
      "unknown workload '" + name + "'");
  if (name == "hot_typecheck") w = HotTypecheck(seed);
  if (name == "engine_heavy") w = EngineHeavy(seed);
  if (name == "cold_compile") w = ColdCompile(seed);
  if (name == "documents") w = Documents(seed);
  if (!w.ok()) return w;
  w->name = name;
  w->seed = seed;
  // xtcd's defaults, minus the worker pool: the client thread runs
  // Process() itself (closed loop, concurrency 1).
  w->service.num_threads = 0;
  return w;
}

std::uint64_t RequestSalt(std::uint64_t seed, std::uint64_t request) {
  Rng salt(Stream(seed, 6).Next() ^ request * 0xd6e8feb86659fd93ull);
  return salt.Next();
}

void StampSalt(PoolLine* line, std::uint64_t seed, std::uint64_t request) {
  if (line->salt_at.empty()) return;
  const std::string hex = Hex12(RequestSalt(seed, request));
  for (std::size_t at : line->salt_at) {
    std::copy(hex.begin(), hex.end(), line->line.begin() + at);
  }
}

std::uint64_t PoolDigest(const Workload& workload) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const PoolLine& line : workload.pool) {
    h = xtc::HashBytes(line.line, h);
    h = xtc::HashBytes("\n", h);
  }
  return h;
}

}  // namespace xbench
