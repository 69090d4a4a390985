// xtcd: the NDJSON typechecking daemon. Reads one request object per stdin
// line, dispatches it to the concurrent TypecheckService, and streams one
// response object per line to stdout in submission order. See DESIGN.md
// section 4 and the README quick-start for the request schema.
//
//   ./xtcd --threads=4 --queue=256 < requests.ndjson > responses.ndjson

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "src/service/service.h"
#include "src/service/stream.h"

namespace {

struct Flags {
  int threads = 4;
  std::size_t queue = 256;
  std::uint64_t deadline_ms = 0;
  std::size_t cache_mb = 64;
  std::size_t cache_shards = 8;   // compile-cache hash partitions
  std::size_t max_streams = 64;   // open chunked-stream session cap (0 = off)
  std::uint64_t drain_ms = 5000;  // grace period for queued work on signal
  int reject_pct = 75;            // load %: requests are shed
  bool print_stats = false;
};

// SIGTERM/SIGINT request a graceful drain: stop reading stdin, let queued
// work finish within --drain-ms, fail the rest cleanly, then exit. The
// handler only sets a flag; sigaction is installed without SA_RESTART so a
// blocking stdin read returns EINTR and the reader loop observes the flag.
std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

void InstallSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupt the blocking getline
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

bool ParseFlag(const char* arg, const char* name, long long* out) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  long long v = std::strtoll(arg + len + 1, &end, 10);
  if (end == nullptr || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads=N] [--queue=N] [--deadline-ms=N]\n"
               "          [--cache-mb=N] [--cache-shards=N] [--max-streams=N]\n"
               "          [--drain-ms=N] [--reject-pct=N] [--stats]\n"
               "Reads NDJSON requests from stdin, writes NDJSON responses to "
               "stdout.\n"
               "SIGTERM/SIGINT drain gracefully: queued work gets --drain-ms "
               "to finish.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    long long v = 0;
    if (ParseFlag(argv[i], "--threads", &v)) {
      flags.threads = static_cast<int>(v);
    } else if (ParseFlag(argv[i], "--queue", &v)) {
      flags.queue = static_cast<std::size_t>(v);
    } else if (ParseFlag(argv[i], "--deadline-ms", &v)) {
      flags.deadline_ms = static_cast<std::uint64_t>(v);
    } else if (ParseFlag(argv[i], "--cache-mb", &v)) {
      flags.cache_mb = static_cast<std::size_t>(v);
    } else if (ParseFlag(argv[i], "--cache-shards", &v)) {
      flags.cache_shards = static_cast<std::size_t>(v);
    } else if (ParseFlag(argv[i], "--max-streams", &v)) {
      flags.max_streams = static_cast<std::size_t>(v);
    } else if (ParseFlag(argv[i], "--drain-ms", &v)) {
      flags.drain_ms = static_cast<std::uint64_t>(v);
    } else if (ParseFlag(argv[i], "--reject-pct", &v)) {
      flags.reject_pct = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      flags.print_stats = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (flags.threads < 1 || flags.queue < 1) return Usage(argv[0]);

  InstallSignalHandlers();

  xtc::TypecheckService::Options options;
  options.num_threads = flags.threads;
  options.queue_capacity = flags.queue;
  options.default_deadline_ms = flags.deadline_ms;
  options.reject_load = flags.reject_pct / 100.0;
  options.cache.max_bytes = flags.cache_mb << 20;
  options.cache.shards = flags.cache_shards;
  options.max_open_streams = flags.max_streams;
  xtc::TypecheckService service(options);

  // The reader (main thread) submits; the writer drains futures in
  // submission order so responses stream out ordered even though workers
  // complete out of order. The hand-off buffer is bounded: with the service
  // queue full, submission blocks here instead of buffering every future of
  // an arbitrarily long input.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<xtc::ServiceResponse>> pending;
  bool done = false;
  const std::size_t max_pending = flags.queue + 64;

  std::thread writer([&] {
    while (true) {
      std::future<xtc::ServiceResponse> next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        next = std::move(pending.front());
        pending.pop_front();
      }
      cv.notify_all();
      std::string line = next.get().ToJsonLine();
      line.push_back('\n');
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fflush(stdout);
    }
  });

  std::string line;
  std::int64_t line_number = 0;
  while (!g_shutdown.load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::future<xtc::ServiceResponse> future;
    xtc::StatusOr<xtc::ServiceRequest> request =
        xtc::ParseServiceRequest(line);
    if (request.ok() && request->chunked && xtc::IsStreamOp(request->op)) {
      // Chunked stream: the document follows as doc_chunk lines, pumped on
      // this thread straight into the session — no queue hop, O(depth)
      // memory end to end. A malformed chunk line aborts the stream (the
      // framing is lost), but still yields exactly one response line.
      if (request->id == 0) request->id = line_number;
      std::unique_ptr<xtc::StreamSession> session =
          service.OpenStream(*std::move(request));
      bool saw_last = false;
      xtc::Status framing = xtc::Status::Ok();
      while (!saw_last && !g_shutdown.load(std::memory_order_relaxed) &&
             std::getline(std::cin, line)) {
        ++line_number;
        xtc::StatusOr<xtc::DocChunk> chunk = xtc::ParseDocChunk(line);
        if (!chunk.ok()) {
          framing = chunk.status();
          break;
        }
        session->Push(chunk->data);
        saw_last = chunk->last;
      }
      xtc::ServiceResponse response = session->Finish();
      if (!framing.ok()) {
        response.status = framing;
      } else if (!saw_last && response.status.ok()) {
        response.status = xtc::InvalidArgumentError(
            "stream ended before a last:true doc_chunk line");
      }
      std::promise<xtc::ServiceResponse> ready;
      future = ready.get_future();
      ready.set_value(std::move(response));
    } else if (request.ok()) {
      if (request->id == 0) request->id = line_number;
      future = service.Submit(*std::move(request));
    } else {
      // Protocol errors still produce a response line, keeping the
      // one-line-in/one-line-out pairing intact for the client.
      xtc::ServiceResponse response;
      response.id = line_number;
      response.status = request.status();
      std::promise<xtc::ServiceResponse> ready;
      future = ready.get_future();
      ready.set_value(std::move(response));
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending.size() < max_pending; });
    pending.push_back(std::move(future));
    cv.notify_all();
  }
  const bool interrupted = g_shutdown.load(std::memory_order_relaxed);
  xtc::DrainReport report;
  if (interrupted) {
    // Graceful drain: close admission now, give queued work --drain-ms to
    // finish, fail the remainder cleanly. Every pending future resolves,
    // so the writer below flushes a response line for every request read.
    report = service.Stop(std::chrono::milliseconds(flags.drain_ms));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  writer.join();
  if (!interrupted) {
    // EOF path: the writer has drained every future, so the queue is
    // already empty and this records a clean zero-cancellation drain.
    report = service.Stop(std::chrono::milliseconds(0));
  }

  if (flags.print_stats || interrupted) {
    xtc::ServiceStats stats = service.stats();
    // Per-shard contention telemetry, compact: hits:misses:evictions per
    // shard in index order — a convoying shard shows up as one hot column.
    std::string shard_hme;
    for (const xtc::CompileCache::ShardStats& shard : stats.cache.per_shard) {
      if (!shard_hme.empty()) shard_hme += ',';
      shard_hme += std::to_string(shard.hits) + ':' +
                   std::to_string(shard.misses) + ':' +
                   std::to_string(shard.evictions);
    }
    std::fprintf(stderr,
                 "xtcd: %s drain=%s drained=%llu cancelled=%llu "
                 "submitted=%llu completed=%llu failed=%llu shed=%llu "
                 "shed_queue_full=%llu shed_overload=%llu shed_deadline=%llu "
                 "shed_stopping=%llu shed_stream_limit=%llu "
                 "expired_in_queue=%llu "
                 "p50=%.3fms p99=%.3fms cache_hits=%llu cache_misses=%llu "
                 "cache_snapshot_hits=%llu cache_lock_waits=%llu "
                 "cache_bytes=%zu cache_entries=%zu cache_shards=%zu "
                 "cache_shard_hme=%s\n",
                 interrupted ? "signal" : "eof",
                 report.clean ? "clean" : "deadline",
                 static_cast<unsigned long long>(report.drained),
                 static_cast<unsigned long long>(report.cancelled),
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.shed_queue_full),
                 static_cast<unsigned long long>(stats.shed_overload),
                 static_cast<unsigned long long>(stats.shed_deadline),
                 static_cast<unsigned long long>(stats.shed_stopping),
                 static_cast<unsigned long long>(stats.shed_stream_limit),
                 static_cast<unsigned long long>(stats.expired_in_queue),
                 stats.latency_p50_ms, stats.latency_p99_ms,
                 static_cast<unsigned long long>(stats.cache.hits),
                 static_cast<unsigned long long>(stats.cache.misses),
                 static_cast<unsigned long long>(stats.cache.snapshot_hits),
                 static_cast<unsigned long long>(stats.cache.lock_waits),
                 stats.cache.bytes, stats.cache.entries, stats.cache.shards,
                 shard_hme.c_str());
  }
  return 0;
}
