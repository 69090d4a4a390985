#include "src/service/service.h"

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/typecheck.h"
#include "src/service/json.h"
#include "src/service/replay.h"
#include "src/service/stream.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

ServiceRequest MustParse(const std::string& line) {
  StatusOr<ServiceRequest> request = ParseServiceRequest(line);
  XTC_CHECK_MSG(request.ok(), request.status().ToString().c_str());
  return *std::move(request);
}

TEST(ServiceRequestTest, ParsesTypecheckRequest) {
  ServiceRequest request = MustParse(
      R"js({"id": 7, "op": "typecheck",
          "din": {"start": "r", "rules": {"r": "a*"}},
          "dout": {"start": "r", "rules": {"r": "b*"}},
          "transducer": {"states": ["q"], "initial": "q",
                         "rules": [["q", "r", "r(q)"], ["q", "a", "b"]]},
          "deadline_ms": 250, "want_counterexample": false})js");
  EXPECT_EQ(request.id, 7);
  EXPECT_EQ(request.op, ServiceOp::kTypecheck);
  EXPECT_EQ(request.din.start, "r");
  EXPECT_EQ(request.dout.rules.size(), 1u);
  EXPECT_EQ(request.transducer.rules.size(), 2u);
  EXPECT_EQ(request.deadline_ms, 250u);
  EXPECT_FALSE(request.want_counterexample);
}

TEST(ServiceRequestTest, RejectsProtocolErrors) {
  EXPECT_FALSE(ParseServiceRequest("not json").ok());
  EXPECT_FALSE(ParseServiceRequest("[1]").ok());
  EXPECT_FALSE(ParseServiceRequest(R"js({"op": "frobnicate"})js").ok());
  EXPECT_FALSE(ParseServiceRequest(R"js({"op": "typecheck"})js").ok());
  EXPECT_FALSE(
      ParseServiceRequest(R"js({"op": "validate", "schema": {"start": "r"}})js")
          .ok());  // missing tree
  EXPECT_FALSE(ParseServiceRequest(
                   R"js({"op": "validate", "schema": {"start": 3}, "tree": "r"})js")
                   .ok());
}

TEST(ServiceRequestTest, RequestJsonRoundTrips) {
  StatusOr<ServiceRequest> request =
      TypecheckRequestFromExample(FilterFamily(3));
  ASSERT_TRUE(request.ok());
  request->id = 11;
  request->deadline_ms = 500;
  ServiceRequest back = MustParse(ServiceRequestToJson(*request));
  EXPECT_EQ(back.id, 11);
  EXPECT_EQ(back.deadline_ms, 500u);
  EXPECT_EQ(back.din.start, request->din.start);
  EXPECT_EQ(back.din.rules, request->din.rules);
  EXPECT_EQ(back.transducer.rules, request->transducer.rules);
  // And the canonical universe is identical after the round trip.
  EXPECT_EQ(*CollectUniverse(back), *CollectUniverse(*request));
}

class ServiceTest : public ::testing::Test {
 protected:
  TypecheckService::Options SyncOptions() {
    TypecheckService::Options options;
    options.num_threads = 2;
    return options;
  }
};

TEST_F(ServiceTest, TypecheckPositiveAndNegative) {
  TypecheckService service(SyncOptions());
  StatusOr<ServiceRequest> good = TypecheckRequestFromExample(FilterFamily(3));
  ASSERT_TRUE(good.ok());
  ServiceResponse response = service.Process(*good);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.typechecks);
  EXPECT_GT(response.elapsed_ms, 0);

  StatusOr<ServiceRequest> bad =
      TypecheckRequestFromExample(FailingFilterFamily(3));
  ASSERT_TRUE(bad.ok());
  response = service.Process(*bad);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.typechecks);
  EXPECT_FALSE(response.counterexample.empty());
  // elapsed_ms telemetry works for ungoverned runs too (no deadline set).
  EXPECT_GT(response.engine_ms, 0);
}

TEST_F(ServiceTest, DelRelabEngineCachesResumableLazySnapshots) {
  TypecheckService service(SyncOptions());
  StatusOr<ServiceRequest> request =
      TypecheckRequestFromExample(RelabFamily(3));
  ASSERT_TRUE(request.ok());
  request->engine = TypecheckEngine::kDelRelab;

  // Cold: the snapshot lookup misses, the run completes, and the engine's
  // discovered state tables are parked on the compile cache.
  ServiceResponse first = service.Process(*request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  CompileCache::Stats stats = service.cache().stats();
  EXPECT_EQ(stats.lazy_hits, 0u);
  EXPECT_GE(stats.lazy_misses, 1u);

  // Warm: the identical request resumes from the cached snapshot and must
  // reach the same verdict.
  ServiceResponse second = service.Process(*request);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(second.typechecks, first.typechecks);
  stats = service.cache().stats();
  EXPECT_GE(stats.lazy_hits, 1u);

  // The auto front door on the same artifacts agrees and never consults
  // the snapshot cache (the counters are unchanged).
  ServiceRequest auto_request = *request;
  auto_request.engine = TypecheckEngine::kAuto;
  ServiceResponse third = service.Process(auto_request);
  ASSERT_TRUE(third.status.ok()) << third.status.ToString();
  EXPECT_EQ(third.typechecks, first.typechecks);
  CompileCache::Stats after = service.cache().stats();
  EXPECT_EQ(after.lazy_hits, stats.lazy_hits);
  EXPECT_EQ(after.lazy_misses, stats.lazy_misses);

  // The wire field round-trips through the NDJSON form.
  ServiceRequest back = MustParse(ServiceRequestToJson(*request));
  EXPECT_EQ(back.engine, TypecheckEngine::kDelRelab);

  // An engine request outside the deleting-relabeling class is a content
  // error, not a crash.
  StatusOr<ServiceRequest> copying =
      TypecheckRequestFromExample(WidthFamily(/*c=*/2, /*k=*/2));
  ASSERT_TRUE(copying.ok());
  copying->engine = TypecheckEngine::kDelRelab;
  ServiceResponse rejected = service.Process(*copying);
  EXPECT_FALSE(rejected.status.ok());
  EXPECT_EQ(rejected.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceTest, ValidateAndTransform) {
  TypecheckService service(SyncOptions());
  ServiceRequest validate = MustParse(
      R"js({"op": "validate", "schema": {"start": "a", "rules": {"a": "b*"}},
          "tree": "a(b b)"})js");
  ServiceResponse response = service.Process(validate);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.valid);

  // A document label outside the request universe is cleanly invalid (its
  // id is past the universe; nothing aborts).
  validate = MustParse(
      R"js({"op": "validate", "schema": {"start": "a", "rules": {"a": "b*"}},
          "tree": "a(b zebra)"})js");
  response = service.Process(validate);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.valid);

  ServiceRequest transform = MustParse(
      R"js({"op": "transform",
          "transducer": {"states": ["q"], "initial": "q",
                         "rules": [["q", "a", "c(q)"], ["q", "b", "d"]]},
          "tree": "a(b b)"})js");
  response = service.Process(transform);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.output, "c(d d)");
}

TEST_F(ServiceTest, ContentErrorsSurfaceInTheResponse) {
  TypecheckService service(SyncOptions());
  // Protocol-valid but content-broken: rhs references unknown state name —
  // it parses as an output label, but an unparsable regex is a content
  // error from the worker.
  ServiceRequest request = MustParse(
      R"js({"op": "validate", "schema": {"start": "a", "rules": {"a": "(((b"}},
          "tree": "a"})js");
  ServiceResponse response = service.Process(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  std::string line = response.ToJsonLine();
  StatusOr<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->Find("status")->AsString(), "invalid_argument");
  ASSERT_NE(parsed->Find("error"), nullptr);
}

TEST_F(ServiceTest, DeadlineExhaustsHostileRequest) {
  TypecheckService service(SyncOptions());
  StatusOr<ServiceRequest> hostile =
      TypecheckRequestFromExample(NfaSchemaFamily(18));
  ASSERT_TRUE(hostile.ok());
  hostile->deadline_ms = 1;
  ServiceResponse response = service.Process(*hostile);
  // Either the governor tripped (expected for 2^18-state determinization in
  // 1ms) or a fast machine finished; both are well-formed.
  if (!response.status.ok()) {
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(ServiceTest, SubmitDeliversConcurrently) {
  TypecheckService::Options options;
  options.num_threads = 4;
  TypecheckService service(options);
  StatusOr<std::vector<ServiceRequest>> batch =
      MakeFamilyBatch("filter", 3, 32, 4);
  ASSERT_TRUE(batch.ok());
  std::vector<std::future<ServiceResponse>> futures;
  for (ServiceRequest& request : *batch) {
    futures.push_back(service.Submit(std::move(request)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceResponse response = futures[i].get();
    EXPECT_EQ(response.id, static_cast<std::int64_t>(i + 1));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.typechecks);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.completed, 32u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.latency_count, 32u);
  EXPECT_GT(stats.latency_p50_ms, 0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
  // 32 requests × 3 artifacts over 4 distinct sizes = 12 distinct keys;
  // concurrent first-misses on one key may each count (both compile, first
  // insert wins), so misses can exceed 12 but lookups always total 96.
  EXPECT_GE(stats.cache.misses, 12u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 96u);
  EXPECT_EQ(stats.cache.entries, 12u);
}

TEST_F(ServiceTest, ShedsWhenQueueIsFull) {
  TypecheckService::Options options;
  options.num_threads = 0;  // no workers: the queue can only fill
  // Three slots fill below reject_load (depth 2/3 < 0.75), so the fourth
  // submission finds the queue full rather than overloaded.
  options.queue_capacity = 3;
  TypecheckService service(options);
  StatusOr<ServiceRequest> request =
      TypecheckRequestFromExample(FilterFamily(2));
  ASSERT_TRUE(request.ok());
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    ServiceRequest copy = *request;
    copy.id = i + 1;
    futures.push_back(service.Submit(std::move(copy)));
  }
  // Requests 4-6 overflowed the 3-slot queue: their futures are already
  // resolved with kResourceExhausted.
  for (int i = 3; i < 6; ++i) {
    ServiceResponse response = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(response.shed_reason, ShedReason::kQueueFull);
    EXPECT_EQ(response.id, i + 1);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.shed_queue_full, 3u);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.queue_depth, 3u);
  // Destruction fails the still-queued requests cleanly (checked by the
  // futures resolving at all — gtest would hang otherwise).
}

TEST_F(ServiceTest, QueuedRequestsFailCleanlyOnShutdown) {
  std::vector<std::future<ServiceResponse>> futures;
  {
    TypecheckService::Options options;
    options.num_threads = 0;
    TypecheckService service(options);
    StatusOr<ServiceRequest> request =
        TypecheckRequestFromExample(FilterFamily(2));
    ASSERT_TRUE(request.ok());
    for (int i = 0; i < 3; ++i) futures.push_back(service.Submit(*request));
  }
  for (std::future<ServiceResponse>& future : futures) {
    ServiceResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(ServiceTest, ResponseLinesAreValidSingleLineJson) {
  TypecheckService service(SyncOptions());
  StatusOr<ServiceRequest> request =
      TypecheckRequestFromExample(FailingFilterFamily(2));
  ASSERT_TRUE(request.ok());
  request->id = 3;
  ServiceResponse response = service.Process(*request);
  std::string line = response.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  StatusOr<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_DOUBLE_EQ(parsed->Find("id")->AsNumber(), 3);
  EXPECT_EQ(parsed->Find("op")->AsString(), "typecheck");
  EXPECT_FALSE(parsed->Find("typechecks")->AsBool());
  ASSERT_NE(parsed->Find("counterexample"), nullptr);
  ASSERT_NE(parsed->Find("cache"), nullptr);
}

// --- Streaming ops & the format field -------------------------------------

TEST(ServiceRequestTest, ParsesAndRoundTripsStreamRequests) {
  ServiceRequest request = MustParse(
      R"js({"id": 4, "op": "validate_stream",
          "schema": {"start": "root", "rules": {"root": "item*"}},
          "doc": "<root><item/></root>"})js");
  EXPECT_EQ(request.op, ServiceOp::kValidateStream);
  EXPECT_EQ(request.doc, "<root><item/></root>");
  EXPECT_FALSE(request.chunked);

  ServiceRequest back = MustParse(ServiceRequestToJson(request));
  EXPECT_EQ(back.op, ServiceOp::kValidateStream);
  EXPECT_EQ(back.doc, request.doc);
  EXPECT_EQ(back.schema.rules, request.schema.rules);

  ServiceRequest chunked = MustParse(
      R"js({"op": "transform_stream", "chunked": true,
          "transducer": {"states": ["q"], "initial": "q",
                         "rules": [["q", "a", "a(q)"]]}})js");
  EXPECT_EQ(chunked.op, ServiceOp::kTransformStream);
  EXPECT_TRUE(chunked.chunked);
  ServiceRequest chunked_back = MustParse(ServiceRequestToJson(chunked));
  EXPECT_TRUE(chunked_back.chunked);

  // A stream op with neither an inline doc nor chunked: true is malformed.
  EXPECT_FALSE(ParseServiceRequest(
                   R"js({"op": "validate_stream",
                       "schema": {"start": "r", "rules": {"r": "%"}}})js")
                   .ok());
}

TEST(ServiceRequestTest, ParsesAndRoundTripsTheFormatField) {
  ServiceRequest request = MustParse(
      R"js({"op": "validate", "format": "xml",
          "schema": {"start": "a", "rules": {"a": "b*"}},
          "tree": "<a><b/></a>"})js");
  EXPECT_EQ(request.format, DocFormat::kXml);
  ServiceRequest back = MustParse(ServiceRequestToJson(request));
  EXPECT_EQ(back.format, DocFormat::kXml);
  EXPECT_EQ(back.tree, request.tree);

  // Default is the paper's term syntax; garbage values are rejected.
  EXPECT_EQ(MustParse(R"js({"op": "validate", "tree": "a",
                          "schema": {"start": "a"}})js")
                .format,
            DocFormat::kTerm);
  EXPECT_FALSE(ParseServiceRequest(
                   R"js({"op": "validate", "format": "sgml", "tree": "a",
                       "schema": {"start": "a"}})js")
                   .ok());
}

TEST(ServiceRequestTest, DocChunkLinesParseAndRoundTrip) {
  StatusOr<DocChunk> chunk =
      ParseDocChunk(R"js({"doc_chunk": "<root><it", "last": false})js");
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_EQ(chunk->data, "<root><it");
  EXPECT_FALSE(chunk->last);

  StatusOr<DocChunk> last = ParseDocChunk(DocChunkToJson({"em/></root>", true}));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->data, "em/></root>");
  EXPECT_TRUE(last->last);

  EXPECT_FALSE(ParseDocChunk(R"js({"last": true})js").ok());
  EXPECT_FALSE(ParseDocChunk(R"js({"doc_chunk": 7})js").ok());
  EXPECT_FALSE(ParseDocChunk("not json").ok());
}

TEST_F(ServiceTest, ValidateAndTransformAcceptXmlFormat) {
  TypecheckService service(SyncOptions());
  ServiceRequest validate = MustParse(
      R"js({"op": "validate", "format": "xml",
          "schema": {"start": "a", "rules": {"a": "b*"}},
          "tree": "<a><b/><b/></a>"})js");
  ServiceResponse response = service.Process(validate);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.valid);

  // The transform output follows the input format: XML in, XML out.
  ServiceRequest transform = MustParse(
      R"js({"op": "transform", "format": "xml",
          "transducer": {"states": ["q"], "initial": "q",
                         "rules": [["q", "a", "c(q)"], ["q", "b", "d"]]},
          "tree": "<a><b/><b/></a>"})js");
  response = service.Process(transform);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.output, "<c><d/><d/></c>");

  // Term syntax in the tree field under format xml is a clean error.
  ServiceRequest mixed = MustParse(
      R"js({"op": "validate", "format": "xml",
          "schema": {"start": "a", "rules": {"a": "b*"}}, "tree": "a(b)"})js");
  response = service.Process(mixed);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, ValidateStreamInlineDoc) {
  TypecheckService service(SyncOptions());
  ServiceRequest request = MustParse(
      R"js({"op": "validate_stream",
          "schema": {"start": "root",
                     "rules": {"root": "(section|item)*",
                               "section": "(section|item)*"}},
          "doc": "<root><section><item/></section><item/></root>"})js");
  ServiceResponse response = service.Process(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.valid);
  EXPECT_EQ(response.shed_reason, ShedReason::kNone);

  // Schema-invalid (item below item) and unknown-label docs: ok status,
  // valid false — verdict parity with the DOM validate op.
  request.doc = "<root><item><item/></item></root>";
  response = service.Process(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.valid);
  request.doc = "<root><zebra/></root>";
  response = service.Process(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.valid);

  // Malformed XML is an error, not a verdict.
  request.doc = "<root><item/>";
  response = service.Process(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, TransformStreamInlineDoc) {
  TypecheckService service(SyncOptions());
  ServiceRequest request = MustParse(
      R"js({"op": "transform_stream",
          "transducer": {"states": ["q"], "initial": "q",
                         "rules": [["q", "a", "c(q)"], ["q", "b", "d"]]},
          "doc": "<a><b/><b/></a>"})js");
  ServiceResponse response = service.Process(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.output, "<c><d/><d/></c>");

  // Verdict parity with the DOM transform op under format xml.
  ServiceRequest dom = MustParse(
      R"js({"op": "transform", "format": "xml",
          "transducer": {"states": ["q"], "initial": "q",
                         "rules": [["q", "a", "c(q)"], ["q", "b", "d"]]},
          "tree": "<a><b/><b/></a>"})js");
  ServiceResponse dom_response = service.Process(dom);
  ASSERT_TRUE(dom_response.status.ok());
  EXPECT_EQ(dom_response.output, response.output);
}

TEST_F(ServiceTest, OpenStreamPumpsChunks) {
  TypecheckService service(SyncOptions());
  ServiceRequest request = MustParse(
      R"js({"id": 9, "op": "validate_stream", "chunked": true,
          "schema": {"start": "root", "rules": {"root": "item*"}}})js");
  std::unique_ptr<StreamSession> session = service.OpenStream(request);
  const std::string doc = "<root><item/><item/></root>";
  // Feed byte by byte: chunk boundaries must not matter.
  for (char c : doc) session->Push(std::string_view(&c, 1));
  ServiceResponse response = session->Finish();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.valid);
  EXPECT_EQ(response.id, 9);
  // Finish is idempotent.
  EXPECT_TRUE(session->Finish().status.ok());

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.completed, 1u);
}

TEST_F(ServiceTest, ChunkedRequestViaProcessIsRejected) {
  // Process has no chunk transport; a chunked stream request needs
  // OpenStream (or xtcd). The error must be a clean protocol error.
  TypecheckService service(SyncOptions());
  ServiceRequest request = MustParse(
      R"js({"op": "validate_stream", "chunked": true,
          "schema": {"start": "root", "rules": {"root": "item*"}}})js");
  ServiceResponse response = service.Process(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, StreamResponseLinesAreWellFormed) {
  TypecheckService service(SyncOptions());
  ServiceRequest request = MustParse(
      R"js({"id": 12, "op": "transform_stream",
          "transducer": {"states": ["q"], "initial": "q",
                         "rules": [["q", "a", "c(q)"]]},
          "doc": "<a><a/></a>"})js");
  ServiceResponse response = service.Process(request);
  std::string line = response.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  StatusOr<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_DOUBLE_EQ(parsed->Find("id")->AsNumber(), 12);
  EXPECT_EQ(parsed->Find("op")->AsString(), "transform_stream");
  ASSERT_NE(parsed->Find("output"), nullptr);
  EXPECT_EQ(parsed->Find("output")->AsString(), "<c><c/></c>");
}

// Satellite regression: ungoverned Typecheck() runs (budget == nullptr)
// populate stats.elapsed_ms from the WallTimer fallback.
TEST(ElapsedMsTest, UngovernedRunsPopulateElapsed) {
  PaperExample ex = FilterFamily(4);
  StatusOr<TypecheckResult> result =
      Typecheck(*ex.transducer, *ex.din, *ex.dout, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->typechecks);
  EXPECT_GT(result->stats.elapsed_ms, 0);
}

}  // namespace
}  // namespace xtc
