// xtc_replay: batch-replay client for the typechecking service, driven
// from the src/workload scaling families.
//
//   emit mode  — print a family batch as NDJSON request lines (pipe into
//                xtcd):
//                  ./xtc_replay --mode=emit --family=filter --n=6 --count=32
//   drive mode — run the batch against an in-process service and print a
//                one-line JSON summary (throughput, latency, cache stats):
//                  ./xtc_replay --mode=drive --family=nfa --n=9 --count=64
//                      --threads=4 --distinct=4

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/service/replay.h"
#include "src/service/service.h"

namespace {

struct Flags {
  std::string mode = "drive";
  std::string family = "filter";
  int n = 4;
  int count = 32;
  int distinct = 1;
  int threads = 4;
  std::size_t queue = 1024;
  std::uint64_t deadline_ms = 0;
  int retries = 1;       // total attempts per request (1 = no retry)
};

bool ParseInt(const char* arg, const char* name, long long* out) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  long long v = std::strtoll(arg + len + 1, &end, 10);
  if (end == nullptr || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

bool ParseStr(const char* arg, const char* name, std::string* out) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--mode=emit|drive] [--family=filter|failing|width|relab|"
      "replus|xpath|nfa|vstream|tstream]\n"
      "          [--n=N] [--count=N] [--distinct=N] [--threads=N] "
      "[--queue=N] [--deadline-ms=N] [--retries=N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    long long v = 0;
    if (ParseStr(argv[i], "--mode", &flags.mode) ||
        ParseStr(argv[i], "--family", &flags.family)) {
      continue;
    } else if (ParseInt(argv[i], "--n", &v)) {
      flags.n = static_cast<int>(v);
    } else if (ParseInt(argv[i], "--count", &v)) {
      flags.count = static_cast<int>(v);
    } else if (ParseInt(argv[i], "--distinct", &v)) {
      flags.distinct = static_cast<int>(v);
    } else if (ParseInt(argv[i], "--threads", &v)) {
      flags.threads = static_cast<int>(v);
    } else if (ParseInt(argv[i], "--queue", &v)) {
      flags.queue = static_cast<std::size_t>(v);
    } else if (ParseInt(argv[i], "--deadline-ms", &v)) {
      flags.deadline_ms = static_cast<std::uint64_t>(v);
    } else if (ParseInt(argv[i], "--retries", &v)) {
      flags.retries = static_cast<int>(v);
    } else {
      return Usage(argv[0]);
    }
  }

  xtc::StatusOr<std::vector<xtc::ServiceRequest>> batch =
      xtc::MakeFamilyBatch(flags.family, flags.n, flags.count, flags.distinct);
  if (!batch.ok()) {
    std::fprintf(stderr, "xtc_replay: %s\n", batch.status().ToString().c_str());
    return 1;
  }
  for (xtc::ServiceRequest& request : *batch) {
    request.deadline_ms = flags.deadline_ms;
  }

  if (flags.mode == "emit") {
    for (const xtc::ServiceRequest& request : *batch) {
      std::string line = xtc::ServiceRequestToJson(request);
      line.push_back('\n');
      std::fwrite(line.data(), 1, line.size(), stdout);
    }
    return 0;
  }
  if (flags.mode != "drive") return Usage(argv[0]);

  xtc::TypecheckService::Options options;
  options.num_threads = flags.threads;
  options.queue_capacity = flags.queue;
  xtc::TypecheckService service(options);

  // Wave-pipelined retries: every wave submits its whole batch (keeping
  // the workers saturated), collects terminal/retryable responses, then
  // sleeps the longest per-request deterministic backoff before the next
  // wave. RetryBackoffMs keeps per-request jitter reproducible.
  xtc::RetryPolicy policy;
  policy.max_attempts = flags.retries < 1 ? 1 : flags.retries;

  auto start = std::chrono::steady_clock::now();
  int ok = 0;
  int errors = 0;
  unsigned long long rejected = 0;
  unsigned long long retries_total = 0, backoff_ms_total = 0;
  std::vector<xtc::ServiceRequest> wave = *std::move(batch);
  for (int attempt = 1; !wave.empty(); ++attempt) {
    std::vector<std::future<xtc::ServiceResponse>> futures;
    futures.reserve(wave.size());
    for (xtc::ServiceRequest& request : wave) {
      request.attempt = static_cast<std::uint64_t>(attempt - 1);
      xtc::ServiceRequest copy = request;
      futures.push_back(service.Submit(std::move(copy)));
    }
    std::vector<xtc::ServiceRequest> next_wave;
    std::uint64_t max_backoff = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      xtc::ServiceResponse response = futures[i].get();
      bool retryable = !response.status.ok() && response.retry_after_ms > 0 &&
                       attempt < policy.max_attempts;
      if (retryable) {
        max_backoff = std::max(
            max_backoff,
            xtc::RetryBackoffMs(policy, static_cast<std::uint64_t>(attempt),
                                response.retry_after_ms, wave[i].id));
        next_wave.push_back(std::move(wave[i]));
        continue;
      }
      (response.status.ok() ? ok : errors) += 1;
      if (response.shed_reason != xtc::ShedReason::kNone) ++rejected;
    }
    retries_total += next_wave.size();
    if (!next_wave.empty()) {
      backoff_ms_total += max_backoff;
      std::this_thread::sleep_for(std::chrono::milliseconds(max_backoff));
    }
    wave = std::move(next_wave);
  }
  double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  xtc::ServiceStats stats = service.stats();
  std::printf(
      "{\"family\": \"%s\", \"n\": %d, \"count\": %d, \"distinct\": %d, "
      "\"threads\": %d, \"ok\": %d, \"errors\": %d, \"elapsed_s\": %.4f, "
      "\"requests_per_s\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
      "\"cache_hits\": %llu, \"cache_misses\": %llu, "
      "\"cache_snapshot_hits\": %llu, \"cache_lock_waits\": %llu, "
      "\"cache_shards\": %zu, \"shed\": %llu, "
      "\"rejected\": %llu, \"retries\": %llu, \"backoff_ms\": %llu}\n",
      flags.family.c_str(), flags.n, flags.count, flags.distinct,
      flags.threads, ok, errors, elapsed_s,
      elapsed_s > 0 ? static_cast<double>(ok + errors) / elapsed_s : 0.0,
      stats.latency_p50_ms, stats.latency_p99_ms,
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.snapshot_hits),
      static_cast<unsigned long long>(stats.cache.lock_waits),
      stats.cache.shards,
      static_cast<unsigned long long>(stats.shed), rejected, retries_total,
      backoff_ms_total);
  return errors == 0 ? 0 : 1;
}
