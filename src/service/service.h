#ifndef XTC_SERVICE_SERVICE_H_
#define XTC_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/service/compile_cache.h"
#include "src/service/request.h"

namespace xtc {

class StreamSession;

/// Lock-free latency telemetry: power-of-two nanosecond buckets, so Record
/// is two relaxed atomic ops on the request path and percentiles are
/// bucket-resolution estimates (within 2x below 1 second, exact max).
/// Thread-compatibility: thread-safe.
class LatencyHistogram {
 public:
  void Record(double ms);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Estimated percentile in [0, 100], in ms; 0 when nothing was recorded.
  double Percentile(double p) const;
  double max_ms() const;

 private:
  static constexpr int kBuckets = 48;  ///< bucket i covers [2^i, 2^(i+1)) ns

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Deterministic service-level fault injection: the n-th service
/// checkpoint crossed (enqueue, execute, compile, cache-adopt, respond —
/// service-wide, across all threads) fails with kResourceExhausted,
/// mirroring Budget::set_fail_at_checkpoint for the engines. Tests sweep n
/// to prove every failure point yields a well-formed response line, never
/// a hang or a torn cache entry. Thread-compatibility: thread-safe.
class ServiceFaultInjector {
 public:
  /// Arms the injector: the n-th (1-based) checkpoint fails. Resets the
  /// crossing counter and the fired record. Not thread-safe against
  /// concurrent Check() — arm before submitting traffic.
  void FailAt(std::uint64_t n) {
    fired_.store(nullptr, std::memory_order_relaxed);
    crossed_.store(0, std::memory_order_relaxed);
    countdown_.store(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  }

  /// The checkpoint: returns true exactly once, on the armed crossing.
  bool Check(const char* checkpoint) {
    crossed_.fetch_add(1, std::memory_order_relaxed);
    if (countdown_.load(std::memory_order_relaxed) <= 0) return false;
    if (countdown_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      fired_.store(checkpoint, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// The checkpoint name that fired, or null while none has.
  const char* fired() const { return fired_.load(std::memory_order_acquire); }
  /// Total checkpoints crossed since FailAt (sweep-termination detection).
  std::uint64_t crossed() const {
    return crossed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> countdown_{0};  ///< 0 = disarmed
  std::atomic<std::uint64_t> crossed_{0};
  std::atomic<const char*> fired_{nullptr};
};

/// A telemetry snapshot; all counters are cumulative since construction.
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< accepted into the queue (or Process())
  std::uint64_t completed = 0;  ///< responses produced with status ok
  std::uint64_t failed = 0;     ///< responses with a non-ok status
  std::uint64_t shed = 0;       ///< rejected at Submit (all reasons)
  std::size_t queue_depth = 0;  ///< instantaneous

  // Admission-control telemetry (DESIGN.md §4, overload semantics).
  std::uint64_t shed_queue_full = 0;   ///< shed: bounded queue at capacity
  std::uint64_t shed_overload = 0;     ///< shed: load factor past reject
  std::uint64_t shed_deadline = 0;     ///< shed: predicted deadline miss
  std::uint64_t shed_stopping = 0;     ///< shed: draining / shut down
  std::uint64_t shed_fault = 0;        ///< shed: injected fault (tests)
  std::uint64_t shed_stream_limit = 0; ///< shed: open-stream cap reached
  std::size_t open_streams = 0;        ///< instantaneous OpenStream sessions
  std::uint64_t expired_in_queue = 0;  ///< admitted, deadline died queued
  std::uint64_t drain_cancelled = 0;   ///< queued work failed by Stop()
  double cost_ewma_ms = 0;             ///< smoothed per-request cost

  std::uint64_t latency_count = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double latency_max_ms = 0;
  CompileCache::Stats cache;
};

/// What Stop() did with the work that was in the system.
struct DrainReport {
  bool clean = false;          ///< queue emptied before the drain deadline
  std::uint64_t drained = 0;   ///< requests that completed during the drain
  std::uint64_t cancelled = 0; ///< queued requests failed at the deadline
};

/// The concurrent typechecking service: a fixed pool of worker threads
/// draining a bounded MPMC queue of ServiceRequests, sharing one
/// content-addressed CompileCache. Each request is executed under its own
/// Budget (created on the worker thread — budgets never cross threads)
/// whose deadline is anchored at *admission*, so queue wait counts against
/// the client's patience. Compiled artifacts are immutable and shared.
///
/// Overload sheds instead of queueing without bound: admission computes a
/// load factor from queue depth and deadline pressure (queue length x EWMA
/// of recent per-request cost vs. the request's deadline). Below
/// `reject_load` a request is admitted and gets an exact answer (or fails
/// softly under its own budget); at or past it the request is shed with a
/// `retry_after_ms` hint. Sheds resolve the future immediately with
/// kResourceExhausted — never unbounded queueing, never a dropped promise.
///
/// Thread-compatibility: thread-safe (Submit/Process/Stop/stats from any
/// thread). Destruction routes through Stop(0): admission closes, queued
/// requests are failed cleanly, every submitted future is fulfilled.
class TypecheckService {
 public:
  struct Options {
    /// Worker threads. 0 runs no workers: Submit() only queues (tests use
    /// this to fill the queue deterministically and assert shedding).
    int num_threads = 4;
    /// Queue slots; Submit sheds once the queue holds this many requests.
    std::size_t queue_capacity = 256;
    /// Deadline for requests that do not carry one (0 = ungoverned).
    std::uint64_t default_deadline_ms = 0;

    /// Load factor at which requests are shed. Load is
    /// max(queue_depth/capacity, predicted wait / request deadline).
    double reject_load = 0.75;
    /// EWMA smoothing for per-request cost (higher = more reactive).
    double cost_ewma_alpha = 0.2;
    /// EWMA seed before any request has completed.
    double cost_prior_ms = 1.0;

    /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
    int max_request_threads = 8;

    /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
    bool antichain = true;
    /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
    int dense_threshold = 0;

    /// Backpressure cap on concurrently open chunked-stream sessions
    /// (OpenStream). Streams run on caller threads and bypass the bounded
    /// worker queue, so without a cap a slow-client fleet could hold
    /// unbounded per-session state (reader buffers, compiled artifacts).
    /// Opens past the cap are shed with kResourceExhausted, reason
    /// `stream_limit`, and a retry_after_ms hint; the slot frees when the
    /// session finishes (or is destroyed). 0 = unbounded.
    std::size_t max_open_streams = 64;

    /// Deterministic fault injection (tests only). Borrowed; must outlive
    /// the service.
    ServiceFaultInjector* fault_injector = nullptr;

    CompileCache::Options cache;
  };

  explicit TypecheckService(const Options& options);
  ~TypecheckService();

  TypecheckService(const TypecheckService&) = delete;
  TypecheckService& operator=(const TypecheckService&) = delete;

  /// Enqueues a request. The future is always valid: a shed request
  /// resolves immediately with kResourceExhausted, a shed_reason, and (when
  /// retrying could help) a retry_after_ms hint.
  std::future<ServiceResponse> Submit(ServiceRequest request);

  /// Executes a request synchronously on the calling thread, bypassing the
  /// queue and admission control (the xtc_replay emit path and unit
  /// tests).
  ServiceResponse Process(const ServiceRequest& request);

  /// Opens a streaming session for a validate_stream / transform_stream
  /// request whose document arrives in chunks (src/service/stream.h). The
  /// session runs on the caller's thread, bypassing the worker queue, with
  /// its deadline anchored now. Always returns a session: shed or
  /// malformed opens come back latched, so Push is a no-op and Finish
  /// yields the well-formed error response. The session borrows this
  /// service and must be finished (or destroyed) before Stop returns —
  /// in-flight streams are the caller's to drain.
  std::unique_ptr<StreamSession> OpenStream(ServiceRequest request);

  /// Graceful drain: closes admission (new Submits shed with `stopping`),
  /// lets the workers finish queued work until `drain_deadline`, then
  /// fails whatever is still queued with kResourceExhausted and joins the
  /// workers. In-flight requests always run to completion — their own
  /// budgets bound them; the drain deadline bounds *queued* work only.
  /// Idempotent: later calls return the first call's report. After Stop,
  /// Submit sheds and Process still works (tests, final stats).
  DrainReport Stop(
      std::chrono::milliseconds drain_deadline = std::chrono::milliseconds(0));

  ServiceStats stats() const;
  CompileCache& cache() { return cache_; }

 private:
  friend class StreamSession;  ///< shares cache, budget policy, and stats

  struct Job {
    ServiceRequest request;
    std::promise<ServiceResponse> promise;
    std::chrono::steady_clock::time_point admit_time;
  };

  void WorkerLoop();
  ServiceResponse Execute(const ServiceRequest& request,
                          std::chrono::steady_clock::time_point admit_time);
  ServiceResponse ShedResponse(const ServiceRequest& request,
                               ShedReason reason,
                               std::uint64_t retry_after_ms);
  /// Estimated queue wait for a newly admitted request, in ms (mu_ held).
  double EstimatedWaitMsLocked() const;
  void RecordCost(double elapsed_ms);
  /// Frees the open-stream slot a counted StreamSession held (at Finish).
  void ReleaseStreamSlot();

  const Options options_;
  CompileCache cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<Job> queue_;
  bool draining_ = false;  ///< admission closed; workers still draining
  bool stopping_ = false;  ///< workers exit once the queue is empty
  std::size_t open_streams_ = 0;  ///< OpenStream sessions not yet finished
  int in_flight_ = 0;      ///< jobs popped but not yet finished
  double cost_ewma_ms_;    ///< guarded by mu_
  std::vector<std::thread> workers_;

  std::mutex stop_mu_;  ///< serializes Stop(); taken before mu_
  bool stopped_ = false;
  DrainReport drain_report_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> shed_stopping_{0};
  std::atomic<std::uint64_t> shed_fault_{0};
  std::atomic<std::uint64_t> shed_stream_limit_{0};
  std::atomic<std::uint64_t> expired_in_queue_{0};
  std::atomic<std::uint64_t> drain_cancelled_{0};
  LatencyHistogram latency_;
};

}  // namespace xtc

#endif  // XTC_SERVICE_SERVICE_H_
