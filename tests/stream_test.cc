// Streaming subsystem tests (src/stream/): the pull-based event reader,
// the O(depth) validator, and the streaming transducer executor — plus the
// differential sweep asserting that, over generated documents of every
// shape, the streaming verdicts and outputs byte-match the DOM path.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/base/arena.h"
#include "src/base/budget.h"
#include "src/schema/dtd.h"
#include "src/stream/doc_gen.h"
#include "src/stream/event_reader.h"
#include "src/stream/transform.h"
#include "src/stream/validate.h"
#include "src/td/exec.h"
#include "src/td/transducer.h"
#include "src/tree/codec.h"
#include "src/tree/tree.h"

namespace xtc {
namespace {

using ReadResult = XmlEventReader::ReadResult;

// Drives a whole document through a reader in chunks of `chunk_size` bytes,
// handing every event to `on_event` (which may be empty). Returns the
// reader's terminal status: OK iff the document tokenized to the end.
Status Drive(std::string_view doc, std::size_t chunk_size, Alphabet* alphabet,
             const std::function<Status(const XmlEvent&)>& on_event,
             Budget* budget = nullptr) {
  XmlEventReader::Options options;
  options.budget = budget;
  XmlEventReader reader(alphabet, options);
  std::size_t fed = 0;
  XmlEvent event;
  while (true) {
    StatusOr<ReadResult> r = reader.Next(&event);
    if (!r.ok()) return r.status();
    switch (*r) {
      case ReadResult::kEvent:
        if (on_event) {
          Status s = on_event(event);
          if (!s.ok()) return s;
        }
        break;
      case ReadResult::kNeedInput:
        if (fed < doc.size()) {
          std::size_t n = std::min(chunk_size, doc.size() - fed);
          reader.Push(doc.substr(fed, n));
          fed += n;
        } else {
          reader.FinishInput();
        }
        break;
      case ReadResult::kEndOfDocument:
        return Status::Ok();
    }
  }
}

std::vector<std::pair<XmlEventKind, std::string>> NamedEvents(
    std::string_view doc, std::size_t chunk_size) {
  Alphabet alphabet;
  std::vector<std::pair<XmlEventKind, std::string>> out;
  Status s = Drive(doc, chunk_size, &alphabet, [&](const XmlEvent& e) {
    out.emplace_back(e.kind, alphabet.Name(e.label));
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

// --- XmlEventReader -------------------------------------------------------

TEST(XmlEventReaderTest, TokenizesRegardlessOfChunkBoundaries) {
  const std::string doc = "<root><section><item/></section><item/></root>";
  const auto whole = NamedEvents(doc, doc.size());
  ASSERT_EQ(whole.size(), 8u);
  EXPECT_EQ(whole[0], std::make_pair(XmlEventKind::kStartElement,
                                     std::string("root")));
  EXPECT_EQ(whole[2], std::make_pair(XmlEventKind::kStartElement,
                                     std::string("item")));
  EXPECT_EQ(whole[3], std::make_pair(XmlEventKind::kEndElement,
                                     std::string("item")));
  EXPECT_EQ(whole[7], std::make_pair(XmlEventKind::kEndElement,
                                     std::string("root")));
  // Every chunk size — including one byte, splitting names and tags — must
  // produce the identical event sequence.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{7}, std::size_t{16}}) {
    EXPECT_EQ(NamedEvents(doc, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(XmlEventReaderTest, SelfClosingYieldsStartThenEnd) {
  const auto events = NamedEvents("<a/>", 1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, XmlEventKind::kStartElement);
  EXPECT_EQ(events[1].first, XmlEventKind::kEndElement);
  EXPECT_EQ(events[0].second, "a");
  EXPECT_EQ(events[1].second, "a");
}

TEST(XmlEventReaderTest, WhitespaceBetweenTagsIsSkipped) {
  const auto events = NamedEvents("  <a>\n  <b/>\t</a>  \n", 4);
  ASSERT_EQ(events.size(), 4u);
}

TEST(XmlEventReaderTest, MismatchedClosingTagFails) {
  Alphabet alphabet;
  Status s = Drive("<a><b></a></a>", 3, &alphabet, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("mismatched closing tag"), std::string::npos)
      << s.ToString();
}

TEST(XmlEventReaderTest, TruncatedDocumentFails) {
  Alphabet alphabet;
  Status s = Drive("<a><b/>", 3, &alphabet, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unexpected end of input inside <a>"),
            std::string::npos)
      << s.ToString();

  Status mid_tag = Drive("<a><lon", 3, &alphabet, nullptr);
  ASSERT_FALSE(mid_tag.ok());
  EXPECT_NE(mid_tag.message().find("inside a tag"), std::string::npos);
}

TEST(XmlEventReaderTest, TrailingGarbageAfterRootFails) {
  Alphabet alphabet;
  for (const char* doc : {"<a/><b/>", "<a></a>x", "<a/> </a>"}) {
    Status s = Drive(doc, 2, &alphabet, nullptr);
    ASSERT_FALSE(s.ok()) << doc;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << doc;
    EXPECT_NE(s.message().find("trailing characters after root element"),
              std::string::npos)
        << s.ToString();
  }
}

TEST(XmlEventReaderTest, DepthFuelRejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "<a>";
  Alphabet alphabet;
  Status s = Drive(deep, 4096, &alphabet, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("depth limit"), std::string::npos);
}

TEST(XmlEventReaderTest, AttributesAndTextAreRejected) {
  Alphabet alphabet;
  for (const char* doc :
       {"<a x=\"1\"/>", "<a>text</a>", "<a><!-- c --></a>", "<>", "</>"}) {
    Status s = Drive(doc, 64, &alphabet, nullptr);
    EXPECT_FALSE(s.ok()) << doc;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << doc;
  }
}

TEST(XmlEventReaderTest, BufferTailStaysBoundedOnHugeDocuments) {
  // Feed ~1M elements through in small chunks; the consumed-prefix
  // compaction must keep bytes_consumed growing while depth stays at the
  // document's real depth (2 here).
  Alphabet alphabet;
  XmlDocStream gen(StreamDocSpec{StreamDocSpec::Shape::kWide, 200000});
  XmlEventReader reader(&alphabet);
  XmlEvent event;
  std::string chunk;
  std::uint64_t events = 0;
  while (true) {
    StatusOr<ReadResult> r = reader.Next(&event);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (*r == ReadResult::kEvent) {
      ++events;
      continue;
    }
    if (*r == ReadResult::kEndOfDocument) break;
    if (gen.Next(&chunk)) {
      reader.Push(chunk);
    } else {
      reader.FinishInput();
    }
  }
  EXPECT_EQ(events, 2u * 200000);
  EXPECT_EQ(reader.max_depth(), 2);
  EXPECT_EQ(reader.bytes_consumed(), gen.bytes_emitted());
}

TEST(XmlEventReaderTest, BudgetByteCeilingSurfacesAsResourceExhausted) {
  Alphabet alphabet;
  Budget budget = Budget::WithMaxBytes(16);
  Status s = Drive("<root><item/><item/><item/></root>", 8, &alphabet,
                   nullptr, &budget);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

// --- Shared grammar contract ---------------------------------------------

// The reader and codec.cc's ParseXml implement the same grammar
// (src/tree/xml_grammar.h): any document one accepts, the other must.
TEST(SharedGrammarTest, ReaderAndParseXmlAgreeOnAcceptance) {
  const char* docs[] = {
      "<a/>", "<a></a>", "<a><b/><c/></a>", "  <a>  <b/>  </a>  ",
      "<a_b.c:d-e/>",
      // rejects
      "", "<a>", "</a>", "<a/><b/>", "<a></b>", "<a", "a", "<a><b></a></b>",
      "<a >< /a>",
  };
  for (const char* doc : docs) {
    Alphabet stream_alphabet;
    Status stream = Drive(doc, 3, &stream_alphabet, nullptr);
    Alphabet dom_alphabet;
    Arena arena;
    TreeBuilder builder(&arena);
    StatusOr<Node*> dom = ParseXml(doc, &dom_alphabet, &builder);
    EXPECT_EQ(stream.ok(), dom.ok())
        << "doc=\"" << doc << "\" stream=" << stream.ToString()
        << " dom=" << dom.status().ToString();
  }
}

// --- Fixtures for the schema/transducer tests ----------------------------

class StreamDocFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = alphabet_.Intern("root");
    section_ = alphabet_.Intern("section");
    item_ = alphabet_.Intern("item");
    dtd_.emplace(&alphabet_, root_);
    ASSERT_TRUE(dtd_->SetRule("root", "(section|item)*").ok());
    ASSERT_TRUE(dtd_->SetRule("section", "(section|item)*").ok());
    ASSERT_TRUE(dtd_->SetRule("item", "%").ok());
    ASSERT_TRUE(dtd_->Compile().ok());
  }

  // The identity transducer (linear: zero copy-spill).
  Transducer MakeIdentity() {
    Transducer t(&alphabet_);
    int m = t.AddState("m");
    t.SetInitial(m);
    EXPECT_TRUE(t.SetRuleFromString("m", "root", "root(m)").ok());
    EXPECT_TRUE(t.SetRuleFromString("m", "section", "section(m)").ok());
    EXPECT_TRUE(t.SetRuleFromString("m", "item", "item").ok());
    return t;
  }

  // Duplicates the translated children at the root only: output stays at
  // 2x the input (safe on deep documents, where per-section copying would
  // be exponential in depth) while still spilling a full subtree copy.
  Transducer MakeRootCopying() {
    Transducer t(&alphabet_);
    int m = t.AddState("m");
    t.AddState("c");
    t.SetInitial(m);
    EXPECT_TRUE(t.SetRuleFromString("m", "root", "root(c c)").ok());
    EXPECT_TRUE(t.SetRuleFromString("c", "section", "section(c)").ok());
    EXPECT_TRUE(t.SetRuleFromString("c", "item", "item").ok());
    return t;
  }

  // Every section (and the root) duplicates its translated children:
  // exercises the byte-accounted copy-spill path.
  Transducer MakeCopying() {
    Transducer t(&alphabet_);
    int m = t.AddState("m");
    t.SetInitial(m);
    EXPECT_TRUE(t.SetRuleFromString("m", "root", "root(m m)").ok());
    EXPECT_TRUE(t.SetRuleFromString("m", "section", "section(m m)").ok());
    EXPECT_TRUE(t.SetRuleFromString("m", "item", "item").ok());
    return t;
  }

  // Streams `doc` through a validator; returns the end-of-document verdict.
  bool StreamVerdict(std::string_view doc, std::size_t chunk = 777) {
    StreamValidator validator(&*dtd_);
    Status s = Drive(doc, chunk, &alphabet_,
                     [&](const XmlEvent& e) { return validator.OnEvent(e); });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return validator.AtEndOfDocument();
  }

  // Streams `doc` through a transducer; output or error status.
  StatusOr<std::string> StreamTransform(const Transducer& t,
                                        std::string_view doc,
                                        std::size_t chunk = 777) {
    std::string out;
    StringSink sink(&out);
    StatusOr<std::unique_ptr<StreamTransducer>> exec =
        StreamTransducer::Create(&t, &sink);
    if (!exec.ok()) return exec.status();
    Status s = Drive(doc, chunk, &alphabet_,
                     [&](const XmlEvent& e) { return (*exec)->OnEvent(e); });
    if (!s.ok()) return s;
    Status f = (*exec)->Finish();
    if (!f.ok()) return f;
    return out;
  }

  // The DOM verdict for the same document (same alphabet, same schema).
  bool DomVerdict(std::string_view doc) {
    Arena arena;
    TreeBuilder builder(&arena);
    StatusOr<Node*> tree = ParseXml(doc, &alphabet_, &builder);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return tree.ok() && dtd_->Valid(*tree);
  }

  // The DOM transform: ToXml(Apply(...)), or an error mirroring the
  // service's Definition 5 root restriction when the output is not a tree.
  StatusOr<std::string> DomTransform(const Transducer& t,
                                     std::string_view doc) {
    Arena arena;
    TreeBuilder builder(&arena);
    StatusOr<Node*> tree = ParseXml(doc, &alphabet_, &builder);
    if (!tree.ok()) return tree.status();
    Node* out = Apply(t, *tree, &builder);
    if (out == nullptr) {
      return FailedPreconditionError(
          "transducer output at the root is not a single tree");
    }
    return ToXml(out, alphabet_);
  }

  Alphabet alphabet_;
  int root_ = -1, section_ = -1, item_ = -1;
  std::optional<Dtd> dtd_;
};

// --- StreamValidator ------------------------------------------------------

TEST_F(StreamDocFixture, AcceptsValidDocument) {
  EXPECT_TRUE(StreamVerdict("<root><section><item/></section><item/></root>"));
}

TEST_F(StreamDocFixture, RejectsWrongRootLabel) {
  EXPECT_FALSE(StreamVerdict("<section><item/></section>"));
}

TEST_F(StreamDocFixture, RejectsContentModelViolation) {
  // item must be a leaf.
  EXPECT_FALSE(StreamVerdict("<root><item><section/></item></root>"));
}

TEST_F(StreamDocFixture, RejectsUnknownLabels) {
  // "blob" interns past the schema's snapshot: range-rejected, exactly like
  // the DOM path.
  EXPECT_FALSE(StreamVerdict("<root><blob/></root>"));
}

TEST_F(StreamDocFixture, ValidatorDepthIsDocumentDepthNotSize) {
  StreamValidator validator(&*dtd_);
  std::string doc = RenderDoc({StreamDocSpec::Shape::kWide, 50000});
  Status s = Drive(doc, 4096, &alphabet_,
                   [&](const XmlEvent& e) { return validator.OnEvent(e); });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(validator.AtEndOfDocument());
  EXPECT_EQ(validator.peak_depth(), 2);  // root + one open child at a time
}

TEST_F(StreamDocFixture, ValidatorInjectedBudgetFaultSurfacesCleanly) {
  Budget budget;
  budget.set_fail_at_checkpoint(1);
  StreamValidator::Options options;
  options.budget = &budget;
  StreamValidator validator(&*dtd_, options);
  // > 1024 events so the gate polls at least once.
  std::string doc = RenderDoc({StreamDocSpec::Shape::kWide, 2000});
  Status s = Drive(doc, 4096, &alphabet_,
                   [&](const XmlEvent& e) { return validator.OnEvent(e); });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

// --- StreamTransducer -----------------------------------------------------

TEST_F(StreamDocFixture, IdentityTransducerStreamsByteExactOutput) {
  Transducer t = MakeIdentity();
  const std::string doc =
      "<root><section><item/><section/></section><item/></root>";
  StatusOr<std::string> out = StreamTransform(t, doc, 1);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, doc);
}

TEST_F(StreamDocFixture, IdentityTransducerSpillsNothing) {
  Transducer t = MakeIdentity();
  std::string doc = RenderDoc({StreamDocSpec::Shape::kMixed, 5000});
  std::string out;
  StringSink sink(&out);
  StatusOr<std::unique_ptr<StreamTransducer>> exec =
      StreamTransducer::Create(&t, &sink);
  ASSERT_TRUE(exec.ok());
  Status s = Drive(doc, 4096, &alphabet_,
                   [&](const XmlEvent& e) { return (*exec)->OnEvent(e); });
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE((*exec)->Finish().ok());
  EXPECT_EQ((*exec)->peak_spill_bytes(), 0u);  // linear: pure write-through
  // The generator leaves childless sections as <section></section>; the
  // serializers canonicalize those to <section/>, so compare against the
  // DOM transform, not the raw input text.
  StatusOr<std::string> dom = DomTransform(t, doc);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  EXPECT_EQ(out, *dom);
}

TEST_F(StreamDocFixture, CopyingTransducerMatchesDomApply) {
  Transducer t = MakeCopying();
  const std::string doc = "<root><section><item/></section><item/></root>";
  StatusOr<std::string> streamed = StreamTransform(t, doc);
  StatusOr<std::string> dom = DomTransform(t, doc);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  EXPECT_EQ(*streamed, *dom);
}

TEST_F(StreamDocFixture, CopySpillCeilingFailsSoft) {
  Transducer t = MakeCopying();
  std::string doc = RenderDoc({StreamDocSpec::Shape::kWide, 2000});
  std::string out;
  StringSink sink(&out);
  StreamTransducer::Options options;
  options.max_spill_bytes = 64;
  StatusOr<std::unique_ptr<StreamTransducer>> exec =
      StreamTransducer::Create(&t, &sink, options);
  ASSERT_TRUE(exec.ok());
  Status s = Drive(doc, 4096, &alphabet_,
                   [&](const XmlEvent& e) { return (*exec)->OnEvent(e); });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("copy-spill"), std::string::npos)
      << s.ToString();
}

TEST_F(StreamDocFixture, SelectorTransducerRejectedAtCreate) {
  Transducer t(&alphabet_);
  int m = t.AddState("m");
  t.SetInitial(m);
  ASSERT_TRUE(t.SetRuleFromString("m", "root", "root(<m, .//item>)").ok());
  std::string out;
  StringSink sink(&out);
  StatusOr<std::unique_ptr<StreamTransducer>> exec =
      StreamTransducer::Create(&t, &sink);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StreamDocFixture, NonTreeOutputFailsTheRootRestriction) {
  // No rule for the root label: the translation is the empty hedge.
  Transducer t(&alphabet_);
  int m = t.AddState("m");
  t.SetInitial(m);
  ASSERT_TRUE(t.SetRuleFromString("m", "item", "item").ok());
  StatusOr<std::string> empty = StreamTransform(t, "<root><item/></root>");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kFailedPrecondition);

  // A hedge-shaped root rule: two trees at the root.
  Transducer pair(&alphabet_);
  int q = pair.AddState("q");
  pair.SetInitial(q);
  ASSERT_TRUE(pair.SetRuleFromString("q", "root", "item item").ok());
  StatusOr<std::string> two = StreamTransform(pair, "<root/>");
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(two.status().message().find("not a single tree"),
            std::string::npos);
}

TEST_F(StreamDocFixture, TransducerInjectedBudgetFaultSurfacesCleanly) {
  Transducer t = MakeIdentity();
  Budget budget;
  budget.set_fail_at_checkpoint(1);
  std::string out;
  StringSink sink(&out);
  StreamTransducer::Options options;
  options.budget = &budget;
  StatusOr<std::unique_ptr<StreamTransducer>> exec =
      StreamTransducer::Create(&t, &sink, options);
  ASSERT_TRUE(exec.ok());
  std::string doc = RenderDoc({StreamDocSpec::Shape::kWide, 2000});
  Status s = Drive(doc, 4096, &alphabet_,
                   [&](const XmlEvent& e) { return (*exec)->OnEvent(e); });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

// --- Differential sweep ---------------------------------------------------

// Mutates a valid generated document into one that is well-formed but
// schema-invalid: an unknown label if an item exists, else a renamed root.
std::string UnknownLabelMutation(std::string doc) {
  std::size_t at = doc.find("<item/>");
  if (at != std::string::npos) {
    doc.replace(at, 7, "<blob/>");
    return doc;
  }
  std::string out;
  std::size_t pos = 0;
  while (pos < doc.size()) {
    std::size_t hit = doc.find("root", pos);
    if (hit == std::string::npos) {
      out.append(doc, pos, std::string::npos);
      break;
    }
    out.append(doc, pos, hit - pos);
    out.append("blob");
    pos = hit + 4;
  }
  return out;
}

TEST_F(StreamDocFixture, DifferentialSweepMatchesDomOnGeneratedDocuments) {
  Transducer identity = MakeIdentity();
  // Root-only copying: per-section copying would be exponential in depth on
  // the deep shapes (2^200 output nodes); duplicating at the root keeps the
  // output at 2x while still exercising spill-and-splice on every doc.
  Transducer copying = MakeRootCopying();
  int docs_checked = 0;
  const StreamDocSpec::Shape shapes[] = {StreamDocSpec::Shape::kWide,
                                         StreamDocSpec::Shape::kDeep,
                                         StreamDocSpec::Shape::kMixed};
  const std::uint64_t sizes[] = {1,  2,   3,   5,   9,    17,  33,
                                 65, 129, 257, 513, 1025, 2049, 4097};
  for (StreamDocSpec::Shape shape : shapes) {
    for (std::uint64_t nodes : sizes) {
      SCOPED_TRACE("shape=" + std::to_string(static_cast<int>(shape)) +
                   " nodes=" + std::to_string(nodes));
      const std::string valid_doc = RenderDoc({shape, nodes});
      for (const std::string& doc :
           {valid_doc, UnknownLabelMutation(valid_doc)}) {
        // Verdict parity.
        EXPECT_EQ(StreamVerdict(doc), DomVerdict(doc)) << doc;
        // Output byte-parity, for the linear and the copying transducer.
        for (const Transducer* t : {&identity, &copying}) {
          StatusOr<std::string> streamed = StreamTransform(*t, doc);
          StatusOr<std::string> dom = DomTransform(*t, doc);
          ASSERT_EQ(streamed.ok(), dom.ok())
              << streamed.status().ToString() << " vs "
              << dom.status().ToString();
          if (streamed.ok()) {
            EXPECT_EQ(*streamed, *dom);
          } else {
            EXPECT_EQ(streamed.status().code(), dom.status().code());
          }
        }
        ++docs_checked;
      }
    }
  }
  EXPECT_GE(docs_checked, 80);  // the ISSUE's sweep floor
}

TEST_F(StreamDocFixture, TruncatedStreamsFailOnBothPaths) {
  for (StreamDocSpec::Shape shape :
       {StreamDocSpec::Shape::kDeep, StreamDocSpec::Shape::kMixed}) {
    std::string doc = RenderDoc({shape, 200});
    for (std::size_t cut : {doc.size() / 2, doc.size() - 1, std::size_t{3}}) {
      std::string truncated = doc.substr(0, cut);
      Status stream = Drive(truncated, 777, &alphabet_, nullptr);
      EXPECT_FALSE(stream.ok()) << "cut=" << cut;
      EXPECT_EQ(stream.code(), StatusCode::kInvalidArgument);
      Arena arena;
      TreeBuilder builder(&arena);
      EXPECT_FALSE(ParseXml(truncated, &alphabet_, &builder).ok());
    }
  }
}

TEST_F(StreamDocFixture, MismatchedTagMutationFailsOnBothPaths) {
  std::string doc = RenderDoc({StreamDocSpec::Shape::kMixed, 300});
  std::size_t at = doc.find("</section>");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, 10, "</item>");
  Status stream = Drive(doc, 777, &alphabet_, nullptr);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.code(), StatusCode::kInvalidArgument);
  Arena arena;
  TreeBuilder builder(&arena);
  EXPECT_FALSE(ParseXml(doc, &alphabet_, &builder).ok());
}

// --- Document generator ---------------------------------------------------

TEST(XmlDocStreamTest, ChunkedAndRenderedFormsAgree) {
  for (StreamDocSpec::Shape shape :
       {StreamDocSpec::Shape::kWide, StreamDocSpec::Shape::kDeep,
        StreamDocSpec::Shape::kMixed}) {
    StreamDocSpec spec{shape, 500};
    std::string whole = RenderDoc(spec);
    XmlDocStream gen(spec);
    std::string rebuilt, chunk;
    while (gen.Next(&chunk)) rebuilt += chunk;
    EXPECT_EQ(rebuilt, whole);
    EXPECT_EQ(gen.bytes_emitted(), whole.size());
  }
}

TEST(XmlDocStreamTest, EmitsExactlyTheRequestedElementCount) {
  for (StreamDocSpec::Shape shape :
       {StreamDocSpec::Shape::kWide, StreamDocSpec::Shape::kDeep,
        StreamDocSpec::Shape::kMixed}) {
    for (std::uint64_t nodes : {std::uint64_t{1}, std::uint64_t{7},
                                std::uint64_t{1000}}) {
      std::string doc = RenderDoc({shape, nodes});
      // Count element opens: "<name" not "</".
      std::uint64_t opens = 0;
      for (std::size_t i = 0; i + 1 < doc.size(); ++i) {
        if (doc[i] == '<' && doc[i + 1] != '/') ++opens;
      }
      EXPECT_EQ(opens, nodes) << "shape=" << static_cast<int>(shape);
    }
  }
}

}  // namespace
}  // namespace xtc
