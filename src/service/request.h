#ifndef XTC_SERVICE_REQUEST_H_
#define XTC_SERVICE_REQUEST_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/fa/alphabet.h"
#include "src/schema/dtd.h"
#include "src/td/transducer.h"

namespace xtc {

/// Textual form of a DTD as carried by the wire protocol: a start symbol
/// and (symbol, regex) rules in the library's regex syntax. Only
/// regex-representable schemas travel over the wire; explicit NFA/DFA rules
/// are an in-process construction.
struct SchemaSpec {
  std::string start;
  std::vector<std::pair<std::string, std::string>> rules;
};

/// Textual form of a transducer: state names (declaration order fixes ids),
/// the initial state, and (state, symbol, rhs) rules in the paper's term
/// syntax — including ⟨q, P⟩ selector leaves ("<q, .//title>").
struct TransducerSpec {
  std::vector<std::string> states;
  std::string initial;
  std::vector<std::array<std::string, 3>> rules;
};

enum class ServiceOp {
  kTypecheck,        ///< din + dout + transducer
  kValidate,         ///< schema + tree
  kTransform,        ///< transducer + tree
  kValidateStream,   ///< schema + doc (XML text, inline or chunked)
  kTransformStream,  ///< transducer + doc (XML text, inline or chunked)
};

const char* ServiceOpName(ServiceOp op);

/// Returns true for the streaming document ops (validate_stream /
/// transform_stream), which carry the document as XML text in `doc` (or as
/// doc_chunk continuation lines when `chunked`) and run on the caller's
/// thread with O(depth) working memory (src/stream/).
bool IsStreamOp(ServiceOp op);

/// Syntax of the `tree` field on validate/transform requests (wire field
/// `format`): the paper's term syntax (default) or the structure-only XML
/// codec syntax. Transform responses serialize their output in the same
/// format the input used.
enum class DocFormat {
  kTerm,
  kXml,
};

/// Why a request was shed or cancelled without (fully) executing; the
/// service stats break shed totals down by reason.
enum class ShedReason {
  kNone,       ///< not shed
  kQueueFull,  ///< the bounded queue held queue_capacity requests
  kOverload,   ///< load factor (depth + deadline pressure) past reject_load
  kDeadline,   ///< predicted or actual deadline expiry before execution
  kStopping,   ///< the service is draining or shut down
  kFault,      ///< a deterministic injected fault fired (tests)
  kStreamLimit,  ///< open chunked-stream sessions at max_open_streams
};

const char* ShedReasonName(ShedReason reason);

/// Engine selection for typecheck requests (wire field `engine`). `kAuto`
/// defers to the library front door, which picks the cheapest applicable
/// engine (usually T_trac). `kDelRelab` requests the Theorem 20
/// deleting-relabeling engine explicitly: it rejects transducers outside
/// the class (`kFailedPrecondition`), but its lazy emptiness exploration is
/// resumable — completed state tables are parked on the compile cache and
/// warm-start later identical requests (DESIGN.md §3c).
enum class TypecheckEngine {
  kAuto,
  kDelRelab,
};

/// One NDJSON request line, parsed. `deadline_ms == 0` defers to the
/// service default.
struct ServiceRequest {
  std::int64_t id = 0;
  ServiceOp op = ServiceOp::kTypecheck;
  SchemaSpec din;
  SchemaSpec dout;
  SchemaSpec schema;  ///< validate
  TransducerSpec transducer;
  std::string tree;  ///< validate/transform input document (`format` syntax)
  DocFormat format = DocFormat::kTerm;  ///< syntax of `tree` (and the output)
  /// Stream ops: the whole document as XML text. Mutually exclusive with
  /// `chunked` — an inline doc rides the request line itself.
  std::string doc;
  /// Stream ops: the document follows the request line as doc_chunk
  /// NDJSON continuation lines (`{"doc_chunk": "...", "last": bool}`),
  /// ending with the first `last: true` line. Only xtcd's transport pumps
  /// chunk lines; in-process callers use TypecheckService::OpenStream.
  bool chunked = false;
  std::uint64_t deadline_ms = 0;
  /// Retry ordinal, 0 on the first try. Echoed in the response; the
  /// client-side retry helper (replay.h) increments it so server logs and
  /// stats can distinguish fresh traffic from retries.
  std::uint64_t attempt = 0;
  bool want_counterexample = true;
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  bool approximate_fallback = false;
  TypecheckEngine engine = TypecheckEngine::kAuto;
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  int threads = 1;
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  int antichain = -1;
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  int dense_threshold = 0;
};

/// Parses one request line. Errors are protocol-shaped (missing fields,
/// bad JSON); schema/transducer *content* errors surface later, from the
/// worker that compiles the request.
StatusOr<ServiceRequest> ParseServiceRequest(std::string_view json_line);

/// Renders a request back to its NDJSON line (replay client, tests).
std::string ServiceRequestToJson(const ServiceRequest& request);

/// One continuation line of a chunked stream request: a slice of the
/// document's XML text plus the end-of-document marker. A malformed chunk
/// line aborts the whole stream (the transport cannot tell where the
/// document was meant to resume), so the response carries the parse error.
struct DocChunk {
  std::string data;
  bool last = false;
};

StatusOr<DocChunk> ParseDocChunk(std::string_view json_line);
std::string DocChunkToJson(const DocChunk& chunk);

/// One NDJSON response line. `status` mirrors the library Status; every
/// response echoes the request id so out-of-order transports can rejoin.
struct ServiceResponse {
  std::int64_t id = 0;
  ServiceOp op = ServiceOp::kTypecheck;
  Status status;
  bool typechecks = false;
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  bool approximate = false;
  bool valid = false;           ///< validate
  std::string output;           ///< transform result (term syntax)
  std::string counterexample;   ///< term syntax; empty when none/suppressed
  double elapsed_ms = 0;        ///< wall clock incl. compile/cache work
  double engine_ms = 0;         ///< the engine run alone (stats.elapsed_ms)
  double queue_ms = 0;          ///< admission-to-execution wait
  std::uint64_t cache_hits = 0;      ///< artifact lookups served from cache
  std::uint64_t cache_misses = 0;    ///< artifact compiles this request paid
  /// Why the request was shed without (fully) executing; kNone when it ran.
  ShedReason shed_reason = ShedReason::kNone;
  /// Backoff hint on shed responses: > 0 means "retryable, wait about this
  /// long". Engine/budget failures leave it 0 — retrying those would burn
  /// the same budget again.
  std::uint64_t retry_after_ms = 0;
  std::uint64_t attempt = 0;  ///< echoed from the request
  std::string ToJsonLine() const;
};

/// The request's symbol universe: every name that compiling or executing it
/// can intern, in sorted order. Derived by actually parsing all components
/// against a private probe alphabet — not by lexical scanning — so it is
/// complete by construction. The universe is the alphabet-identity part of
/// every artifact's content address: artifacts compiled under the same
/// universe share one immutable Alphabet object (pointer-compared by the
/// engines), and request processing never interns a new name into a shared
/// alphabet (src/base/README.md).
///
/// The input document's labels are deliberately *excluded* (documents vary
/// per request; schemas must stay cache-stable). Validate/transform parse
/// the tree against a request-private alphabet seeded with the universe;
/// unknown document labels get ids past the universe, which every schema
/// check range-rejects.
StatusOr<std::vector<std::string>> CollectUniverse(
    const ServiceRequest& request);

/// Builds the cheap, uncompiled form of a schema spec against `alphabet`
/// (which must already contain the request universe): parses each rule and
/// installs it (Glushkov NFA only — no subset construction, no analysis).
StatusOr<Dtd> BuildSchemaSkeleton(const SchemaSpec& spec, Alphabet* alphabet);

/// Builds the transducer skeleton: states, initial, parsed rules. No
/// selector compilation, no width analysis.
StatusOr<Transducer> BuildTransducerSkeleton(const TransducerSpec& spec,
                                             Alphabet* alphabet);

}  // namespace xtc

#endif  // XTC_SERVICE_REQUEST_H_
