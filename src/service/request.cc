#include "src/service/request.h"

#include <algorithm>
#include <cmath>

#include "src/fa/regex.h"
#include "src/service/json.h"

namespace xtc {
namespace {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

Status FieldError(const char* field, const char* expected) {
  return InvalidArgumentError(std::string("request field '") + field + "' " +
                              expected);
}

StatusOr<SchemaSpec> SchemaFromJson(const JsonValue& v, const char* field) {
  if (v.kind() != JsonValue::Kind::kObject) {
    return FieldError(field, "must be an object {start, rules}");
  }
  SchemaSpec spec;
  const JsonValue* start = v.Find("start");
  if (start == nullptr || start->kind() != JsonValue::Kind::kString) {
    return FieldError(field, "needs a string 'start'");
  }
  spec.start = start->AsString();
  if (const JsonValue* rules = v.Find("rules")) {
    if (rules->kind() != JsonValue::Kind::kObject) {
      return FieldError(field, "needs 'rules' as an object {symbol: regex}");
    }
    for (const auto& [symbol, regex] : rules->AsObject()) {
      if (regex.kind() != JsonValue::Kind::kString) {
        return FieldError(field, "has a non-string rule regex");
      }
      spec.rules.emplace_back(symbol, regex.AsString());
    }
  }
  return spec;
}

JsonValue SchemaToJson(const SchemaSpec& spec) {
  JsonValue o = JsonValue::Object();
  o.Set("start", JsonValue::Str(spec.start));
  JsonValue rules = JsonValue::Object();
  for (const auto& [symbol, regex] : spec.rules) {
    rules.Set(symbol, JsonValue::Str(regex));
  }
  o.Set("rules", std::move(rules));
  return o;
}

StatusOr<TransducerSpec> TransducerFromJson(const JsonValue& v) {
  if (v.kind() != JsonValue::Kind::kObject) {
    return FieldError("transducer", "must be an object {states, initial, rules}");
  }
  TransducerSpec spec;
  const JsonValue* states = v.Find("states");
  if (states == nullptr || states->kind() != JsonValue::Kind::kArray) {
    return FieldError("transducer", "needs 'states' as an array of names");
  }
  for (const JsonValue& s : states->AsArray()) {
    if (s.kind() != JsonValue::Kind::kString) {
      return FieldError("transducer", "has a non-string state name");
    }
    spec.states.push_back(s.AsString());
  }
  const JsonValue* initial = v.Find("initial");
  if (initial == nullptr || initial->kind() != JsonValue::Kind::kString) {
    return FieldError("transducer", "needs a string 'initial'");
  }
  spec.initial = initial->AsString();
  if (const JsonValue* rules = v.Find("rules")) {
    if (rules->kind() != JsonValue::Kind::kArray) {
      return FieldError("transducer",
                        "needs 'rules' as an array of [state, symbol, rhs]");
    }
    for (const JsonValue& rule : rules->AsArray()) {
      if (rule.kind() != JsonValue::Kind::kArray ||
          rule.AsArray().size() != 3 ||
          rule.AsArray()[0].kind() != JsonValue::Kind::kString ||
          rule.AsArray()[1].kind() != JsonValue::Kind::kString ||
          rule.AsArray()[2].kind() != JsonValue::Kind::kString) {
        return FieldError("transducer",
                          "rules must be [state, symbol, rhs] string triples");
      }
      spec.rules.push_back({rule.AsArray()[0].AsString(),
                            rule.AsArray()[1].AsString(),
                            rule.AsArray()[2].AsString()});
    }
  }
  return spec;
}

JsonValue TransducerToJson(const TransducerSpec& spec) {
  JsonValue o = JsonValue::Object();
  JsonValue states = JsonValue::Array();
  for (const std::string& s : spec.states) {
    states.MutableArray().push_back(JsonValue::Str(s));
  }
  o.Set("states", std::move(states));
  o.Set("initial", JsonValue::Str(spec.initial));
  JsonValue rules = JsonValue::Array();
  for (const auto& rule : spec.rules) {
    JsonValue triple = JsonValue::Array();
    triple.MutableArray().push_back(JsonValue::Str(rule[0]));
    triple.MutableArray().push_back(JsonValue::Str(rule[1]));
    triple.MutableArray().push_back(JsonValue::Str(rule[2]));
    rules.MutableArray().push_back(std::move(triple));
  }
  o.Set("rules", std::move(rules));
  return o;
}

// Rounds durations to whole microseconds so NDJSON lines stay short and
// deterministic in width.
double RoundMs(double ms) { return std::round(ms * 1000.0) / 1000.0; }

}  // namespace

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kOverload:
      return "overload";
    case ShedReason::kDeadline:
      return "deadline";
    case ShedReason::kStopping:
      return "stopping";
    case ShedReason::kFault:
      return "fault";
    case ShedReason::kStreamLimit:
      return "stream_limit";
  }
  return "unknown";
}

const char* ServiceOpName(ServiceOp op) {
  switch (op) {
    case ServiceOp::kTypecheck:
      return "typecheck";
    case ServiceOp::kValidate:
      return "validate";
    case ServiceOp::kTransform:
      return "transform";
    case ServiceOp::kValidateStream:
      return "validate_stream";
    case ServiceOp::kTransformStream:
      return "transform_stream";
  }
  return "unknown";
}

bool IsStreamOp(ServiceOp op) {
  return op == ServiceOp::kValidateStream || op == ServiceOp::kTransformStream;
}

StatusOr<ServiceRequest> ParseServiceRequest(std::string_view json_line) {
  XTC_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json_line));
  if (doc.kind() != JsonValue::Kind::kObject) {
    return InvalidArgumentError("request must be a JSON object");
  }
  ServiceRequest request;
  if (const JsonValue* id = doc.Find("id")) {
    if (id->kind() != JsonValue::Kind::kNumber) {
      return FieldError("id", "must be a number");
    }
    request.id = static_cast<std::int64_t>(std::llround(id->AsNumber()));
  }
  const JsonValue* op = doc.Find("op");
  if (op == nullptr || op->kind() != JsonValue::Kind::kString) {
    return FieldError("op", "is required (typecheck | validate | transform)");
  }
  const std::string& op_name = op->AsString();
  if (op_name == "typecheck") {
    request.op = ServiceOp::kTypecheck;
  } else if (op_name == "validate") {
    request.op = ServiceOp::kValidate;
  } else if (op_name == "transform") {
    request.op = ServiceOp::kTransform;
  } else if (op_name == "validate_stream") {
    request.op = ServiceOp::kValidateStream;
  } else if (op_name == "transform_stream") {
    request.op = ServiceOp::kTransformStream;
  } else {
    return FieldError("op",
                      "must be typecheck, validate, transform, "
                      "validate_stream, or transform_stream");
  }

  if (const JsonValue* deadline = doc.Find("deadline_ms")) {
    if (deadline->kind() != JsonValue::Kind::kNumber ||
        deadline->AsNumber() < 0) {
      return FieldError("deadline_ms", "must be a non-negative number");
    }
    request.deadline_ms =
        static_cast<std::uint64_t>(std::llround(deadline->AsNumber()));
  }
  if (const JsonValue* attempt = doc.Find("attempt")) {
    if (attempt->kind() != JsonValue::Kind::kNumber ||
        attempt->AsNumber() < 0) {
      return FieldError("attempt", "must be a non-negative number");
    }
    request.attempt =
        static_cast<std::uint64_t>(std::llround(attempt->AsNumber()));
  }
  if (const JsonValue* want = doc.Find("want_counterexample")) {
    if (want->kind() != JsonValue::Kind::kBool) {
      return FieldError("want_counterexample", "must be a bool");
    }
    request.want_counterexample = want->AsBool();
  }
  if (const JsonValue* engine = doc.Find("engine")) {
    if (engine->kind() != JsonValue::Kind::kString) {
      return FieldError("engine", "must be a string");
    }
    if (engine->AsString() == "auto") {
      request.engine = TypecheckEngine::kAuto;
    } else if (engine->AsString() == "delrelab") {
      request.engine = TypecheckEngine::kDelRelab;
    } else {
      return FieldError("engine", "must be auto or delrelab");
    }
  }
  if (const JsonValue* tree = doc.Find("tree")) {
    if (tree->kind() != JsonValue::Kind::kString) {
      return FieldError("tree", "must be a term-syntax string");
    }
    request.tree = tree->AsString();
  }
  if (const JsonValue* format = doc.Find("format")) {
    if (format->kind() != JsonValue::Kind::kString) {
      return FieldError("format", "must be a string");
    }
    if (format->AsString() == "term") {
      request.format = DocFormat::kTerm;
    } else if (format->AsString() == "xml") {
      request.format = DocFormat::kXml;
    } else {
      return FieldError("format", "must be term or xml");
    }
  }
  if (const JsonValue* d = doc.Find("doc")) {
    if (d->kind() != JsonValue::Kind::kString) {
      return FieldError("doc", "must be an XML string");
    }
    request.doc = d->AsString();
  }
  if (const JsonValue* chunked = doc.Find("chunked")) {
    if (chunked->kind() != JsonValue::Kind::kBool) {
      return FieldError("chunked", "must be a bool");
    }
    request.chunked = chunked->AsBool();
  }

  auto require = [&doc](const char* field) -> StatusOr<const JsonValue*> {
    const JsonValue* v = doc.Find(field);
    if (v == nullptr) {
      return InvalidArgumentError(std::string("request field '") + field +
                                  "' is required for this op");
    }
    return v;
  };
  switch (request.op) {
    case ServiceOp::kTypecheck: {
      XTC_ASSIGN_OR_RETURN(const JsonValue* din, require("din"));
      XTC_ASSIGN_OR_RETURN(request.din, SchemaFromJson(*din, "din"));
      XTC_ASSIGN_OR_RETURN(const JsonValue* dout, require("dout"));
      XTC_ASSIGN_OR_RETURN(request.dout, SchemaFromJson(*dout, "dout"));
      XTC_ASSIGN_OR_RETURN(const JsonValue* td, require("transducer"));
      XTC_ASSIGN_OR_RETURN(request.transducer, TransducerFromJson(*td));
      break;
    }
    case ServiceOp::kValidate: {
      XTC_ASSIGN_OR_RETURN(const JsonValue* schema, require("schema"));
      XTC_ASSIGN_OR_RETURN(request.schema, SchemaFromJson(*schema, "schema"));
      XTC_RETURN_IF_ERROR(require("tree").status());
      break;
    }
    case ServiceOp::kTransform: {
      XTC_ASSIGN_OR_RETURN(const JsonValue* td, require("transducer"));
      XTC_ASSIGN_OR_RETURN(request.transducer, TransducerFromJson(*td));
      XTC_RETURN_IF_ERROR(require("tree").status());
      break;
    }
    case ServiceOp::kValidateStream: {
      XTC_ASSIGN_OR_RETURN(const JsonValue* schema, require("schema"));
      XTC_ASSIGN_OR_RETURN(request.schema, SchemaFromJson(*schema, "schema"));
      if (!request.chunked && doc.Find("doc") == nullptr) {
        return FieldError("doc", "is required unless 'chunked' is true");
      }
      break;
    }
    case ServiceOp::kTransformStream: {
      XTC_ASSIGN_OR_RETURN(const JsonValue* td, require("transducer"));
      XTC_ASSIGN_OR_RETURN(request.transducer, TransducerFromJson(*td));
      if (!request.chunked && doc.Find("doc") == nullptr) {
        return FieldError("doc", "is required unless 'chunked' is true");
      }
      break;
    }
  }
  return request;
}

std::string ServiceRequestToJson(const ServiceRequest& request) {
  JsonValue o = JsonValue::Object();
  o.Set("id", JsonValue::Number(static_cast<double>(request.id)));
  o.Set("op", JsonValue::Str(ServiceOpName(request.op)));
  switch (request.op) {
    case ServiceOp::kTypecheck:
      o.Set("din", SchemaToJson(request.din));
      o.Set("dout", SchemaToJson(request.dout));
      o.Set("transducer", TransducerToJson(request.transducer));
      break;
    case ServiceOp::kValidate:
      o.Set("schema", SchemaToJson(request.schema));
      o.Set("tree", JsonValue::Str(request.tree));
      break;
    case ServiceOp::kTransform:
      o.Set("transducer", TransducerToJson(request.transducer));
      o.Set("tree", JsonValue::Str(request.tree));
      break;
    case ServiceOp::kValidateStream:
      o.Set("schema", SchemaToJson(request.schema));
      break;
    case ServiceOp::kTransformStream:
      o.Set("transducer", TransducerToJson(request.transducer));
      break;
  }
  if (IsStreamOp(request.op)) {
    if (request.chunked) {
      o.Set("chunked", JsonValue::Bool(true));
    } else {
      o.Set("doc", JsonValue::Str(request.doc));
    }
  }
  if (request.format == DocFormat::kXml &&
      (request.op == ServiceOp::kValidate ||
       request.op == ServiceOp::kTransform)) {
    o.Set("format", JsonValue::Str("xml"));
  }
  if (request.deadline_ms != 0) {
    o.Set("deadline_ms",
          JsonValue::Number(static_cast<double>(request.deadline_ms)));
  }
  if (request.attempt != 0) {
    o.Set("attempt", JsonValue::Number(static_cast<double>(request.attempt)));
  }
  if (!request.want_counterexample) {
    o.Set("want_counterexample", JsonValue::Bool(false));
  }
  if (request.engine == TypecheckEngine::kDelRelab) {
    o.Set("engine", JsonValue::Str("delrelab"));
  }
  return o.Dump();
}

std::string ServiceResponse::ToJsonLine() const {
  JsonValue o = JsonValue::Object();
  o.Set("id", JsonValue::Number(static_cast<double>(id)));
  o.Set("op", JsonValue::Str(ServiceOpName(op)));
  o.Set("status", JsonValue::Str(StatusCodeName(status.code())));
  if (!status.ok()) {
    o.Set("error", JsonValue::Str(status.message()));
  } else {
    switch (op) {
      case ServiceOp::kTypecheck:
        o.Set("typechecks", JsonValue::Bool(typechecks));
        if (!counterexample.empty()) {
          o.Set("counterexample", JsonValue::Str(counterexample));
        }
        break;
      case ServiceOp::kValidate:
        o.Set("valid", JsonValue::Bool(valid));
        break;
      case ServiceOp::kTransform:
      case ServiceOp::kTransformStream:
        o.Set("output", JsonValue::Str(output));
        break;
      case ServiceOp::kValidateStream:
        o.Set("valid", JsonValue::Bool(valid));
        break;
    }
  }
  if (shed_reason != ShedReason::kNone) {
    o.Set("shed_reason", JsonValue::Str(ShedReasonName(shed_reason)));
  }
  if (retry_after_ms > 0) {
    o.Set("retry_after_ms",
          JsonValue::Number(static_cast<double>(retry_after_ms)));
  }
  if (attempt > 0) {
    o.Set("attempt", JsonValue::Number(static_cast<double>(attempt)));
  }
  o.Set("elapsed_ms", JsonValue::Number(RoundMs(elapsed_ms)));
  if (engine_ms > 0) o.Set("engine_ms", JsonValue::Number(RoundMs(engine_ms)));
  if (queue_ms > 0) o.Set("queue_ms", JsonValue::Number(RoundMs(queue_ms)));
  JsonValue cache = JsonValue::Object();
  cache.Set("hits", JsonValue::Number(static_cast<double>(cache_hits)));
  cache.Set("misses", JsonValue::Number(static_cast<double>(cache_misses)));
  o.Set("cache", std::move(cache));
  return o.Dump();
}

StatusOr<DocChunk> ParseDocChunk(std::string_view json_line) {
  XTC_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json_line));
  if (doc.kind() != JsonValue::Kind::kObject) {
    return InvalidArgumentError("doc chunk must be a JSON object");
  }
  const JsonValue* data = doc.Find("doc_chunk");
  if (data == nullptr || data->kind() != JsonValue::Kind::kString) {
    return FieldError("doc_chunk", "is required and must be a string");
  }
  DocChunk chunk;
  chunk.data = data->AsString();
  if (const JsonValue* last = doc.Find("last")) {
    if (last->kind() != JsonValue::Kind::kBool) {
      return FieldError("last", "must be a bool");
    }
    chunk.last = last->AsBool();
  }
  return chunk;
}

std::string DocChunkToJson(const DocChunk& chunk) {
  JsonValue o = JsonValue::Object();
  o.Set("doc_chunk", JsonValue::Str(chunk.data));
  if (chunk.last) o.Set("last", JsonValue::Bool(true));
  return o.Dump();
}

StatusOr<std::vector<std::string>> CollectUniverse(
    const ServiceRequest& request) {
  Alphabet probe;
  auto probe_schema = [&probe](const SchemaSpec& spec,
                               const char* which) -> Status {
    if (spec.start.empty()) {
      return InvalidArgumentError(std::string(which) +
                                  ": missing start symbol");
    }
    probe.Intern(spec.start);
    for (const auto& [symbol, regex] : spec.rules) {
      probe.Intern(symbol);
      StatusOr<RegexPtr> re = ParseRegex(regex, &probe);
      if (!re.ok()) {
        return InvalidArgumentError(std::string(which) + " rule '" + symbol +
                                    "': " + re.status().message());
      }
    }
    return Status::Ok();
  };
  switch (request.op) {
    case ServiceOp::kTypecheck: {
      XTC_RETURN_IF_ERROR(probe_schema(request.din, "din"));
      XTC_RETURN_IF_ERROR(probe_schema(request.dout, "dout"));
      XTC_RETURN_IF_ERROR(
          BuildTransducerSkeleton(request.transducer, &probe).status());
      break;
    }
    case ServiceOp::kValidate:
    case ServiceOp::kValidateStream:
      XTC_RETURN_IF_ERROR(probe_schema(request.schema, "schema"));
      break;
    case ServiceOp::kTransform:
    case ServiceOp::kTransformStream:
      XTC_RETURN_IF_ERROR(
          BuildTransducerSkeleton(request.transducer, &probe).status());
      break;
  }
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(probe.size()));
  for (int i = 0; i < probe.size(); ++i) names.push_back(probe.Name(i));
  std::sort(names.begin(), names.end());
  return names;
}

StatusOr<Dtd> BuildSchemaSkeleton(const SchemaSpec& spec, Alphabet* alphabet) {
  std::optional<int> start = alphabet->Find(spec.start);
  if (!start.has_value()) {
    // The universe was collected from this very spec, so the start symbol is
    // always present; reaching this means the caller passed the wrong
    // alphabet.
    return InvalidArgumentError("start symbol '" + spec.start +
                                "' is not in the request universe");
  }
  Dtd dtd(alphabet, *start);
  for (const auto& [symbol, regex] : spec.rules) {
    XTC_RETURN_IF_ERROR(dtd.SetRule(symbol, regex));
  }
  return dtd;
}

StatusOr<Transducer> BuildTransducerSkeleton(const TransducerSpec& spec,
                                             Alphabet* alphabet) {
  if (spec.states.empty()) {
    return InvalidArgumentError("transducer has no states");
  }
  Transducer t(alphabet);
  for (const std::string& name : spec.states) {
    if (t.FindState(name).has_value()) {
      return InvalidArgumentError("duplicate transducer state '" + name + "'");
    }
    t.AddState(name);
  }
  std::optional<int> initial = t.FindState(spec.initial);
  if (!initial.has_value()) {
    return InvalidArgumentError("unknown initial state '" + spec.initial +
                                "'");
  }
  t.SetInitial(*initial);
  for (const auto& rule : spec.rules) {
    XTC_RETURN_IF_ERROR(t.SetRuleFromString(rule[0], rule[1], rule[2]));
  }
  return t;
}

}  // namespace xtc
