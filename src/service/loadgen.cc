#include "src/service/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/service/replay.h"

namespace xtc {
namespace {

// splitmix64, for the deterministic weighted class pick per arrival.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ClassState {
  LoadClass spec;
  std::vector<ServiceRequest> variants;  // cycled through per arrival
  std::size_t next_variant = 0;
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> failed_other{0};
  LatencyHistogram latency;  // server-side end-to-end, ok responses only
  double failed_max_ms = 0;  // written by the harvest thread only
};

}  // namespace

StatusOr<LoadgenReport> RunLoadgen(const LoadgenOptions& options) {
  if (options.classes.empty()) {
    return InvalidArgumentError("loadgen needs at least one traffic class");
  }
  if (options.offered_qps <= 0 || options.duration_s <= 0) {
    return InvalidArgumentError("loadgen needs offered_qps, duration_s > 0");
  }

  std::vector<std::unique_ptr<ClassState>> classes;
  double total_weight = 0;
  for (const LoadClass& spec : options.classes) {
    if (spec.weight <= 0) {
      return InvalidArgumentError("class '" + spec.name +
                                  "' needs weight > 0");
    }
    auto state = std::make_unique<ClassState>();
    state->spec = spec;
    XTC_ASSIGN_OR_RETURN(
        state->variants,
        MakeFamilyBatch(spec.family, spec.n, spec.distinct, spec.distinct));
    for (ServiceRequest& request : state->variants) {
      request.deadline_ms = spec.deadline_ms;
    }
    total_weight += spec.weight;
    classes.push_back(std::move(state));
  }

  TypecheckService service(options.service);
  for (const auto& state : classes) {
    if (!state->spec.prewarm) continue;
    for (const ServiceRequest& request : state->variants) {
      // Populate the compile cache before the clock starts; verdicts and
      // failures here are irrelevant (hostile prewarms may time out).
      ServiceRequest warm = request;
      warm.deadline_ms = 0;
      (void)service.Process(warm);
    }
  }

  // Harvest thread: drains futures in submission order, attributing each
  // response to its class. Submission order is fine — every future
  // resolves (the service guarantees it), and total wall time is bounded
  // by the slowest outstanding request, not by harvest order.
  struct Pending {
    std::size_t class_index;
    std::future<ServiceResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool dispatch_done = false;

  std::thread harvester([&] {
    while (true) {
      Pending next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return dispatch_done || !pending.empty(); });
        if (pending.empty()) return;
        next = std::move(pending.front());
        pending.pop_front();
      }
      ServiceResponse response = next.future.get();
      ClassState& state = *classes[next.class_index];
      if (response.status.ok()) {
        state.ok.fetch_add(1, std::memory_order_relaxed);
        state.latency.Record(response.queue_ms + response.elapsed_ms);
      } else if (response.shed_reason != ShedReason::kNone) {
        state.shed.fetch_add(1, std::memory_order_relaxed);
      } else {
        state.failed.fetch_add(1, std::memory_order_relaxed);
        if (response.status.code() != StatusCode::kResourceExhausted) {
          state.failed_other.fetch_add(1, std::memory_order_relaxed);
        }
        state.failed_max_ms = std::max(
            state.failed_max_ms, response.queue_ms + response.elapsed_ms);
      }
    }
  });

  // Open-loop dispatch: arrival i fires at start + i/qps whether or not
  // earlier arrivals have completed. Falling behind schedule (a saturated
  // machine) degenerates to back-to-back submission — offered load is
  // never silently reduced to match service speed.
  const auto start = std::chrono::steady_clock::now();
  const auto total =
      static_cast<std::uint64_t>(options.offered_qps * options.duration_s);
  const double interval_s = 1.0 / options.offered_qps;
  for (std::uint64_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(i * interval_s)));
    double r = static_cast<double>(Mix64(options.seed ^ i) >> 11) *
               0x1.0p-53 * total_weight;
    std::size_t pick = 0;
    for (; pick + 1 < classes.size(); ++pick) {
      r -= classes[pick]->spec.weight;
      if (r < 0) break;
    }
    ClassState& state = *classes[pick];
    ServiceRequest request =
        state.variants[state.next_variant++ % state.variants.size()];
    request.id = static_cast<std::int64_t>(i + 1);
    state.offered.fetch_add(1, std::memory_order_relaxed);
    Pending item{pick, service.Submit(std::move(request))};
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(item));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    dispatch_done = true;
  }
  cv.notify_all();
  harvester.join();
  double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // All futures are harvested; the queue is empty, so this is a clean stop
  // and the report reflects final counters.
  service.Stop(std::chrono::milliseconds(0));

  LoadgenReport report;
  report.offered_qps = options.offered_qps;
  report.wall_s = wall_s;
  for (const auto& state : classes) {
    ClassReport cls;
    cls.offered = state->offered.load();
    cls.ok = state->ok.load();
    cls.shed = state->shed.load();
    cls.failed = state->failed.load();
    cls.failed_other = state->failed_other.load();
    cls.failed_max_ms = state->failed_max_ms;
    cls.deadline_ms = state->spec.deadline_ms;
    cls.p50_ms = state->latency.Percentile(50);
    cls.p99_ms = state->latency.Percentile(99);
    cls.p999_ms = state->latency.Percentile(99.9);
    cls.max_ms = state->latency.max_ms();
    report.offered += cls.offered;
    report.ok += cls.ok;
    report.shed += cls.shed;
    report.failed += cls.failed;
    report.classes.emplace(state->spec.name, cls);
  }
  report.achieved_qps =
      wall_s > 0 ? static_cast<double>(report.ok) / wall_s : 0;
  report.service = service.stats();
  return report;
}

StatusOr<double> EstimateSustainableQps(const LoadgenOptions& options,
                                        const LoadClass& cls, int samples) {
  if (samples < 1) samples = 1;
  XTC_ASSIGN_OR_RETURN(
      std::vector<ServiceRequest> variants,
      MakeFamilyBatch(cls.family, cls.n, cls.distinct, cls.distinct));
  TypecheckService service(options.service);
  for (const ServiceRequest& request : variants) {
    (void)service.Process(request);  // warm the compile cache
  }
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < samples; ++i) {
    ServiceRequest request = variants[static_cast<std::size_t>(i) %
                                      variants.size()];
    ServiceResponse response = service.Process(request);
    XTC_RETURN_IF_ERROR(response.status);
  }
  double mean_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count() /
                  samples;
  if (mean_s <= 0) mean_s = 1e-6;
  int lanes = options.service.num_threads > 0 ? options.service.num_threads : 1;
  return static_cast<double>(lanes) / mean_s;
}

}  // namespace xtc
