#include "src/service/stream.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace xtc {

StreamSession::StreamSession(TypecheckService* service,
                             ServiceResponse response, bool record)
    : service_(service), response_(std::move(response)), record_(record) {
  latched_ = response_.status;
  if (latched_.ok()) {
    // A prefailed session always carries a non-ok status; keep the
    // invariant even if a caller hands us an ok one.
    latched_ = InvalidArgumentError("stream session was never opened");
    response_.status = latched_;
  }
}

StreamSession::StreamSession(
    TypecheckService* service, const ServiceRequest& request,
    std::chrono::steady_clock::time_point admit_time)
    : service_(service) {
  response_.id = request.id;
  response_.op = request.op;
  response_.attempt = request.attempt;
  response_.queue_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - admit_time)
                           .count();

  // The same checkpoint ladder as the queued Execute path, so the fault
  // sweep proves mid-stream failures also end in well-formed responses.
  if (Injected("execute")) {
    Latch(ResourceExhaustedError("injected fault at 'execute'"));
    return;
  }

  std::uint64_t deadline_ms = request.deadline_ms != 0
                                  ? request.deadline_ms
                                  : service_->options_.default_deadline_ms;
  if (deadline_ms != 0) {
    budget_.set_deadline_until(admit_time +
                               std::chrono::milliseconds(deadline_ms));
    budget_ptr_ = &budget_;
    if (budget_.remaining_ms().value_or(1) <= 0) {
      service_->expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      response_.shed_reason = ShedReason::kDeadline;
      Latch(ResourceExhaustedError(
          "deadline expired after " + std::to_string(deadline_ms) +
          "ms before the stream opened"));
      return;
    }
  }
  auto compile_cap_ms = [&]() -> std::uint64_t {
    if (budget_ptr_ == nullptr) return 0;
    std::optional<double> left = budget_ptr_->remaining_ms();
    if (!left.has_value()) return 0;
    return static_cast<std::uint64_t>(std::llround(std::max(*left, 1.0)));
  };

  StatusOr<std::vector<std::string>> universe = CollectUniverse(request);
  if (!universe.ok()) {
    Latch(universe.status());
    return;
  }
  universe_ = service_->cache_.GetOrCreateAlphabet(*universe);

  if (Injected("compile")) {
    Latch(ResourceExhaustedError("injected fault at 'compile'"));
    return;
  }

  bool hit = false;
  if (request.op == ServiceOp::kValidateStream) {
    StatusOr<std::shared_ptr<const CompiledSchema>> schema =
        service_->cache_.GetOrCompileSchema(request.schema, universe_, &hit,
                                            compile_cap_ms());
    if (!schema.ok()) {
      Latch(schema.status());
      return;
    }
    schema_ = *std::move(schema);
  } else {
    StatusOr<std::shared_ptr<const CompiledTransducer>> td =
        service_->cache_.GetOrCompileTransducer(request.transducer, universe_,
                                                &hit, compile_cap_ms());
    if (!td.ok()) {
      Latch(td.status());
      return;
    }
    compiled_transducer_ = *std::move(td);
  }
  (hit ? response_.cache_hits : response_.cache_misses) += 1;

  if (Injected("cache-adopt")) {
    Latch(ResourceExhaustedError("injected fault at 'cache-adopt'"));
    return;
  }

  // The document's labels go into a request-private alphabet seeded with
  // the universe, exactly like the DOM paths: known names line up with
  // artifact ids, unknown ones get ids past the universe and range-reject.
  for (int i = 0; i < universe_->size(); ++i) local_.Intern(universe_->Name(i));

  XmlEventReader::Options reader_options;
  reader_options.budget = budget_ptr_;
  reader_.emplace(&local_, reader_options);

  if (request.op == ServiceOp::kValidateStream) {
    StreamValidator::Options options;
    options.budget = budget_ptr_;
    validator_.emplace(schema_->dtd.get(), options);
  } else {
    sink_.emplace(&output_);
    StreamTransducer::Options options;
    options.budget = budget_ptr_;
    // The streaming executor runs the selector-free compilation (identical
    // pointer when the transducer never had selectors), mirroring the
    // typecheck engines; selectors need subtree replay a stream lacks.
    StatusOr<std::unique_ptr<StreamTransducer>> t = StreamTransducer::Create(
        compiled_transducer_->selector_free.get(), &*sink_, options);
    if (!t.ok()) {
      Latch(t.status());
      return;
    }
    transducer_ = *std::move(t);
  }
}

StreamSession::~StreamSession() {
  // An abandoned session still resolves: stats count every opened stream.
  if (!finished_) Finish();
}

bool StreamSession::Injected(const char* checkpoint) {
  ServiceFaultInjector* injector = service_->options_.fault_injector;
  return injector != nullptr && injector->Check(checkpoint);
}

void StreamSession::Latch(Status status) {
  if (latched_.ok() && !status.ok()) latched_ = std::move(status);
}

void StreamSession::Pump() {
  if (!reader_.has_value()) return;
  XmlEvent event;
  while (latched_.ok()) {
    StatusOr<XmlEventReader::ReadResult> r = reader_->Next(&event);
    if (!r.ok()) {
      Latch(r.status());
      return;
    }
    if (*r != XmlEventReader::ReadResult::kEvent) return;
    Status s = validator_.has_value() ? validator_->OnEvent(event)
                                     : transducer_->OnEvent(event);
    if (!s.ok()) Latch(s);
  }
}

void StreamSession::Push(std::string_view chunk) {
  if (finished_ || !latched_.ok() || !reader_.has_value()) return;
  reader_->Push(chunk);
  Pump();
}

ServiceResponse StreamSession::Finish() {
  if (finished_) return response_;
  finished_ = true;
  if (holds_stream_slot_) {
    holds_stream_slot_ = false;
    service_->ReleaseStreamSlot();
  }
  if (latched_.ok() && reader_.has_value()) {
    reader_->FinishInput();
    Pump();
  }
  if (latched_.ok() && validator_.has_value()) {
    response_.valid = validator_->AtEndOfDocument();
  }
  if (latched_.ok() && transducer_ != nullptr) {
    Status s = transducer_->Finish();
    if (s.ok()) {
      response_.output = std::move(output_);
    } else {
      Latch(std::move(s));
    }
  }
  if (record_ && Injected("respond")) {
    latched_ = ResourceExhaustedError("injected fault at 'respond'");
  }
  response_.status = latched_;
  response_.elapsed_ms = timer_.elapsed_ms();
  if (record_) {
    service_->latency_.Record(response_.elapsed_ms);
    service_->RecordCost(response_.elapsed_ms);
    (response_.status.ok() ? service_->completed_ : service_->failed_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return response_;
}

std::unique_ptr<StreamSession> TypecheckService::OpenStream(
    ServiceRequest request) {
  auto prefailed = [&](ServiceResponse response) {
    return std::unique_ptr<StreamSession>(
        new StreamSession(this, std::move(response), /*record=*/false));
  };
  if (!IsStreamOp(request.op)) {
    ServiceResponse response;
    response.id = request.id;
    response.op = request.op;
    response.attempt = request.attempt;
    response.status = InvalidArgumentError(
        "OpenStream requires a validate_stream or transform_stream request");
    return prefailed(std::move(response));
  }
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->Check("enqueue")) {
    return prefailed(
        ShedResponse(request, ShedReason::kFault, /*retry_after_ms=*/0));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stopping_) {
      return prefailed(
          ShedResponse(request, ShedReason::kStopping, /*retry_after_ms=*/0));
    }
    // Backpressure: streams bypass the bounded worker queue, so the open-
    // session count is their queue. Past the cap the open is shed with a
    // retry hint (same clamp as queue sheds); a slot frees at Finish.
    if (options_.max_open_streams != 0 &&
        open_streams_ >= options_.max_open_streams) {
      constexpr double kMinRetryAfterMs = 10, kMaxRetryAfterMs = 5000;
      const std::uint64_t hint = static_cast<std::uint64_t>(std::llround(
          std::clamp(EstimatedWaitMsLocked(), kMinRetryAfterMs,
                     kMaxRetryAfterMs)));
      return prefailed(ShedResponse(request, ShedReason::kStreamLimit, hint));
    }
    ++open_streams_;
  }
  // Streams bypass the worker queue (their bytes arrive interactively on
  // the caller's thread), so admission is just the drain gate plus the
  // open-session cap.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  auto session = std::unique_ptr<StreamSession>(new StreamSession(
      this, request, std::chrono::steady_clock::now()));
  session->holds_stream_slot_ = true;
  return session;
}

void TypecheckService::ReleaseStreamSlot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_streams_ > 0) --open_streams_;
}

}  // namespace xtc
