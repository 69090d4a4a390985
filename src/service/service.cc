#include "src/service/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/base/arena.h"
#include "src/core/relab.h"
#include "src/core/typecheck.h"
#include "src/service/stream.h"
#include "src/td/exec.h"
#include "src/tree/codec.h"

namespace xtc {
namespace {

// Retry hints are clamped so clients neither spin (sub-10ms retries on a
// loaded service) nor stall (multi-second waits on a momentary spike).
constexpr std::uint64_t kMinRetryAfterMs = 10;
constexpr std::uint64_t kMaxRetryAfterMs = 5000;

}  // namespace

void LatencyHistogram::Record(double ms) {
  auto ns = static_cast<std::uint64_t>(ms * 1e6);
  if (ns == 0) ns = 1;
  int bucket = std::bit_width(ns) - 1;  // floor(log2(ns))
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::Percentile(double p) const {
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * total));
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Geometric midpoint of [2^i, 2^(i+1)) ns, reported in ms.
      return std::exp2(i + 0.5) / 1e6;
    }
  }
  return max_ms();
}

double LatencyHistogram::max_ms() const {
  return max_ns_.load(std::memory_order_relaxed) / 1e6;
}

TypecheckService::TypecheckService(const Options& options)
    : options_(options),
      cache_(options.cache),
      cost_ewma_ms_(options.cost_prior_ms > 0 ? options.cost_prior_ms : 1.0) {
  workers_.reserve(static_cast<std::size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TypecheckService::~TypecheckService() {
  // Destruction is an immediate drain: admission closes, queued-but-
  // unstarted requests are failed cleanly, every future is fulfilled.
  Stop(std::chrono::milliseconds(0));
}

double TypecheckService::EstimatedWaitMsLocked() const {
  int lanes = std::max(options_.num_threads, 1);
  return (static_cast<double>(queue_.size()) +
          static_cast<double>(in_flight_)) *
         cost_ewma_ms_ / static_cast<double>(lanes);
}

void TypecheckService::RecordCost(double elapsed_ms) {
  double alpha = options_.cost_ewma_alpha;
  if (alpha <= 0 || alpha > 1) alpha = 0.2;
  std::lock_guard<std::mutex> lock(mu_);
  cost_ewma_ms_ += alpha * (elapsed_ms - cost_ewma_ms_);
}

ServiceResponse TypecheckService::ShedResponse(const ServiceRequest& request,
                                               ShedReason reason,
                                               std::uint64_t retry_after_ms) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  switch (reason) {
    case ShedReason::kQueueFull:
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ShedReason::kOverload:
      shed_overload_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ShedReason::kDeadline:
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ShedReason::kStopping:
      shed_stopping_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ShedReason::kFault:
      shed_fault_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ShedReason::kStreamLimit:
      shed_stream_limit_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ShedReason::kNone:
      break;
  }
  ServiceResponse response;
  response.id = request.id;
  response.op = request.op;
  response.attempt = request.attempt;
  response.shed_reason = reason;
  response.retry_after_ms = retry_after_ms;
  switch (reason) {
    case ShedReason::kStopping:
      response.status = ResourceExhaustedError("service shutting down");
      break;
    case ShedReason::kQueueFull:
      response.status = ResourceExhaustedError("request queue is full");
      break;
    case ShedReason::kOverload:
      response.status =
          ResourceExhaustedError("service overloaded; request shed");
      break;
    case ShedReason::kDeadline:
      response.status = ResourceExhaustedError(
          "predicted queue wait exceeds the request deadline");
      break;
    case ShedReason::kFault:
      response.status =
          ResourceExhaustedError("injected fault at service checkpoint");
      break;
    case ShedReason::kStreamLimit:
      response.status = ResourceExhaustedError(
          "too many concurrently open stream sessions");
      break;
    case ShedReason::kNone:
      response.status = ResourceExhaustedError("request shed");
      break;
  }
  return response;
}

std::future<ServiceResponse> TypecheckService::Submit(ServiceRequest request) {
  Job job;
  job.request = std::move(request);
  std::future<ServiceResponse> future = job.promise.get_future();

  if (options_.fault_injector != nullptr &&
      options_.fault_injector->Check("enqueue")) {
    job.promise.set_value(
        ShedResponse(job.request, ShedReason::kFault, /*retry_after_ms=*/0));
    return future;
  }

  ShedReason reason = ShedReason::kNone;
  std::uint64_t retry_hint = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t hint = static_cast<std::uint64_t>(std::llround(
        std::clamp(EstimatedWaitMsLocked(),
                   static_cast<double>(kMinRetryAfterMs),
                   static_cast<double>(kMaxRetryAfterMs))));
    if (draining_ || stopping_) {
      // Not retryable against this instance: the service is going away.
      reason = ShedReason::kStopping;
    } else if (queue_.size() >= options_.queue_capacity) {
      reason = ShedReason::kQueueFull;
      retry_hint = hint;
    } else {
      // Admission: the load factor folds together how full the queue is
      // and how long the new request would wait relative to its deadline
      // (queue depth x smoothed per-request cost over the worker lanes).
      double depth_load =
          options_.queue_capacity > 0
              ? static_cast<double>(queue_.size()) /
                    static_cast<double>(options_.queue_capacity)
              : 1.0;
      double est_wait_ms = EstimatedWaitMsLocked();
      std::uint64_t deadline_ms = job.request.deadline_ms != 0
                                      ? job.request.deadline_ms
                                      : options_.default_deadline_ms;
      double pressure =
          (deadline_ms != 0 && options_.num_threads > 0)
              ? est_wait_ms / static_cast<double>(deadline_ms)
              : 0.0;
      double load = std::max(depth_load, pressure);
      if (pressure >= 1.0) {
        // The request would (almost surely) expire before a worker picks
        // it up; shedding now is strictly kinder than queueing it to die.
        reason = ShedReason::kDeadline;
        retry_hint = hint;
      } else if (load >= options_.reject_load) {
        reason = ShedReason::kOverload;
        retry_hint = hint;
      } else {
        job.admit_time = std::chrono::steady_clock::now();
        queue_.push_back(std::move(job));
        submitted_.fetch_add(1, std::memory_order_relaxed);
        queue_cv_.notify_one();
        return future;
      }
    }
  }
  // Graceful shedding: the caller gets an immediate, well-formed response
  // with a shed reason and (when useful) a backoff hint instead of
  // unbounded queueing.
  job.promise.set_value(ShedResponse(job.request, reason, retry_hint));
  return future;
}

ServiceResponse TypecheckService::Process(const ServiceRequest& request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return Execute(request, std::chrono::steady_clock::now());
}

void TypecheckService::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    job.promise.set_value(Execute(job.request, job.admit_time));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (draining_ && queue_.empty() && in_flight_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

DrainReport TypecheckService::Stop(std::chrono::milliseconds drain_deadline) {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return drain_report_;

  DrainReport report;
  std::uint64_t done_before = completed_.load(std::memory_order_relaxed) +
                              failed_.load(std::memory_order_relaxed);
  std::deque<Job> cancelled;
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;  // Submit sheds with kStopping from here on
    report.clean = drain_cv_.wait_until(
        lock, std::chrono::steady_clock::now() + drain_deadline,
        [this] { return queue_.empty() && in_flight_ == 0; });
    stopping_ = true;
    cancelled.swap(queue_);
  }
  queue_cv_.notify_all();
  // In-flight work always runs to completion — per-request budgets bound
  // it; the drain deadline bounds queued-but-unstarted work only.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  report.drained = completed_.load(std::memory_order_relaxed) +
                   failed_.load(std::memory_order_relaxed) - done_before;
  report.cancelled = cancelled.size();
  for (Job& job : cancelled) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    drain_cancelled_.fetch_add(1, std::memory_order_relaxed);
    ServiceResponse response;
    response.id = job.request.id;
    response.op = job.request.op;
    response.attempt = job.request.attempt;
    response.shed_reason = ShedReason::kStopping;
    response.status = ResourceExhaustedError("service shutting down");
    job.promise.set_value(std::move(response));
  }

  stopped_ = true;
  drain_report_ = report;
  return report;
}

ServiceResponse TypecheckService::Execute(
    const ServiceRequest& request,
    std::chrono::steady_clock::time_point admit_time) {
  if (IsStreamOp(request.op)) {
    // Inline-doc stream requests (queued or Process()ed) run the same
    // session the chunk transport uses; the whole document is just one
    // chunk. The session records latency/cost/completion stats itself.
    if (request.chunked) {
      ServiceResponse response;
      response.id = request.id;
      response.op = request.op;
      response.attempt = request.attempt;
      response.status = InvalidArgumentError(
          "chunked stream requests need a chunk transport (xtcd) or "
          "OpenStream; submit an inline 'doc' instead");
      failed_.fetch_add(1, std::memory_order_relaxed);
      return response;
    }
    StreamSession session(this, request, admit_time);
    session.Push(request.doc);
    return session.Finish();
  }
  WallTimer timer;
  ServiceResponse response;
  response.id = request.id;
  response.op = request.op;
  response.attempt = request.attempt;
  response.queue_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - admit_time)
                          .count();

  ServiceFaultInjector* injector = options_.fault_injector;
  auto injected = [&](const char* checkpoint) {
    return injector != nullptr && injector->Check(checkpoint);
  };

  auto finish = [&](Status status) -> ServiceResponse {
    // The `respond` checkpoint proves that even a failure at the very
    // last step still yields a well-formed response line.
    if (injected("respond")) {
      status = ResourceExhaustedError("injected fault at 'respond'");
    }
    response.status = std::move(status);
    response.elapsed_ms = timer.elapsed_ms();
    latency_.Record(response.elapsed_ms);
    RecordCost(response.elapsed_ms);
    (response.status.ok() ? completed_ : failed_)
        .fetch_add(1, std::memory_order_relaxed);
    return std::move(response);
  };

  if (injected("execute")) {
    return finish(ResourceExhaustedError("injected fault at 'execute'"));
  }

  // The per-request governor lives and dies on this worker thread
  // (src/base/README.md: budgets never cross threads). Its deadline is
  // anchored at admission, so queue wait already counts against it.
  Budget budget;
  Budget* budget_ptr = nullptr;
  std::uint64_t deadline_ms = request.deadline_ms != 0
                                  ? request.deadline_ms
                                  : options_.default_deadline_ms;
  if (deadline_ms != 0) {
    budget.set_deadline_until(admit_time +
                              std::chrono::milliseconds(deadline_ms));
    budget_ptr = &budget;
    if (budget.remaining_ms().value_or(1) <= 0) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      response.shed_reason = ShedReason::kDeadline;
      return finish(ResourceExhaustedError(
          "deadline expired after " + std::to_string(deadline_ms) +
          "ms before execution started"));
    }
  }
  // Cap on subordinate compile work: the request's remaining patience,
  // rounded up so a nearly-expired deadline still caps rather than
  // disabling the cap (0 means "no cap" to the cache).
  auto compile_cap_ms = [&]() -> std::uint64_t {
    if (budget_ptr == nullptr) return 0;
    std::optional<double> left = budget_ptr->remaining_ms();
    if (!left.has_value()) return 0;
    return static_cast<std::uint64_t>(std::llround(std::max(*left, 1.0)));
  };

  StatusOr<std::vector<std::string>> universe = CollectUniverse(request);
  if (!universe.ok()) return finish(universe.status());
  std::shared_ptr<Alphabet> alphabet = cache_.GetOrCreateAlphabet(*universe);

  auto count_lookup = [&response](bool hit) {
    (hit ? response.cache_hits : response.cache_misses) += 1;
  };

  if (injected("compile")) {
    return finish(ResourceExhaustedError("injected fault at 'compile'"));
  }

  // Validate/transform parse the input document against a request-private
  // alphabet seeded with the universe: document ids line up with artifact
  // ids, labels outside the universe get ids past it (every schema check
  // range-rejects those), and the shared alphabet is never interned into.
  auto parse_tree = [&](Alphabet* local,
                        TreeBuilder* builder) -> StatusOr<Node*> {
    for (int i = 0; i < alphabet->size(); ++i) local->Intern(alphabet->Name(i));
    return request.format == DocFormat::kXml
               ? ParseXml(request.tree, local, builder)
               : ParseTerm(request.tree, local, builder);
  };

  switch (request.op) {
    case ServiceOp::kTypecheck: {
      bool hit = false;
      StatusOr<std::shared_ptr<const CompiledSchema>> din =
          cache_.GetOrCompileSchema(request.din, alphabet, &hit,
                                    compile_cap_ms());
      if (!din.ok()) return finish(din.status());
      count_lookup(hit);
      StatusOr<std::shared_ptr<const CompiledSchema>> dout =
          cache_.GetOrCompileSchema(request.dout, alphabet, &hit,
                                    compile_cap_ms());
      if (!dout.ok()) return finish(dout.status());
      count_lookup(hit);
      StatusOr<std::shared_ptr<const CompiledTransducer>> td =
          cache_.GetOrCompileTransducer(request.transducer, alphabet, &hit,
                                        compile_cap_ms());
      if (!td.ok()) return finish(td.status());
      count_lookup(hit);

      if (injected("cache-adopt")) {
        return finish(
            ResourceExhaustedError("injected fault at 'cache-adopt'"));
      }

      TypecheckOptions options;
      options.budget = budget_ptr;
      options.want_counterexample = request.want_counterexample;
      options.widths = &(*td)->widths;
      options.din_determinized = (*din)->determinized.get();
      options.dout_determinized = (*dout)->determinized.get();
      // Resumable lazy exploration (delrelab engine only — the auto front
      // door dispatches to engines that never touch these tables): equal
      // artifact keys pose the identical emptiness query, so discovered
      // tables from an earlier request warm-start this one. '\x1f' never
      // occurs in canonical texts, so the join is injective.
      const std::string lazy_key =
          (*din)->key + '\x1f' + (*dout)->key + '\x1f' + (*td)->key;
      std::shared_ptr<const LazySnapshot> lazy_resume;
      LazySnapshot lazy_export;
      if (request.engine == TypecheckEngine::kDelRelab) {
        lazy_resume = cache_.GetLazySnapshot(lazy_key);
        options.lazy_resume = lazy_resume.get();
        options.lazy_export = &lazy_export;
      }
      StatusOr<TypecheckResult> result =
          request.engine == TypecheckEngine::kDelRelab
              ? TypecheckDelRelab(*(*td)->selector_free, *(*din)->dtd,
                                  *(*dout)->dtd, options)
              : Typecheck(*(*td)->selector_free, *(*din)->dtd, *(*dout)->dtd,
                          options);
      if (!result.ok()) return finish(result.status());
      if (lazy_export.complete) {
        // Only completed runs export; Put keeps the first insert on a race.
        cache_.PutLazySnapshot(
            lazy_key, std::make_shared<LazySnapshot>(std::move(lazy_export)));
      }
      response.typechecks = result->typechecks;
      response.engine_ms = result->stats.elapsed_ms;
      if (result->counterexample != nullptr) {
        response.counterexample =
            ToTermString(result->counterexample, *alphabet);
      }
      return finish(Status::Ok());
    }
    case ServiceOp::kValidate: {
      bool hit = false;
      StatusOr<std::shared_ptr<const CompiledSchema>> schema =
          cache_.GetOrCompileSchema(request.schema, alphabet, &hit,
                                    compile_cap_ms());
      if (!schema.ok()) return finish(schema.status());
      count_lookup(hit);
      if (injected("cache-adopt")) {
        return finish(
            ResourceExhaustedError("injected fault at 'cache-adopt'"));
      }
      Alphabet local;
      Arena arena;
      TreeBuilder builder(&arena);
      StatusOr<Node*> tree = parse_tree(&local, &builder);
      if (!tree.ok()) return finish(tree.status());
      response.valid = (*schema)->dtd->Valid(*tree);
      return finish(Status::Ok());
    }
    case ServiceOp::kTransform: {
      bool hit = false;
      StatusOr<std::shared_ptr<const CompiledTransducer>> td =
          cache_.GetOrCompileTransducer(request.transducer, alphabet, &hit,
                                        compile_cap_ms());
      if (!td.ok()) return finish(td.status());
      count_lookup(hit);
      if (injected("cache-adopt")) {
        return finish(
            ResourceExhaustedError("injected fault at 'cache-adopt'"));
      }
      Alphabet local;
      Arena arena;
      TreeBuilder builder(&arena);
      StatusOr<Node*> tree = parse_tree(&local, &builder);
      if (!tree.ok()) return finish(tree.status());
      Node* output = Apply(*(*td)->original, *tree, &builder);
      if (output == nullptr) {
        return finish(FailedPreconditionError(
            "transducer output at the root is not a single tree"));
      }
      // The output rides in the same syntax the input document used.
      response.output = request.format == DocFormat::kXml
                            ? ToXml(output, local)
                            : ToTermString(output, local);
      return finish(Status::Ok());
    }
    case ServiceOp::kValidateStream:
    case ServiceOp::kTransformStream:
      break;  // dispatched to a StreamSession before the switch
  }
  return finish(InvalidArgumentError("unknown op"));
}

ServiceStats TypecheckService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  stats.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  stats.shed_stopping = shed_stopping_.load(std::memory_order_relaxed);
  stats.shed_fault = shed_fault_.load(std::memory_order_relaxed);
  stats.shed_stream_limit =
      shed_stream_limit_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.drain_cancelled = drain_cancelled_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queue_.size();
    stats.cost_ewma_ms = cost_ewma_ms_;
    stats.open_streams = open_streams_;
  }
  stats.latency_count = latency_.count();
  stats.latency_p50_ms = latency_.Percentile(50);
  stats.latency_p99_ms = latency_.Percentile(99);
  stats.latency_max_ms = latency_.max_ms();
  stats.cache = cache_.stats();
  return stats;
}

}  // namespace xtc
