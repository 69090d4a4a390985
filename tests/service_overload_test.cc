// Overload and failure semantics of the service (DESIGN.md §4): admission
// control, graceful drain, deadline-pressure shedding, the
// deterministic client backoff, and the service-level fault-injection
// sweep. Runs under tsan in CI (name matches the Service regex) and the
// asan fault sweep (ServiceFaultInjectionTest matches FaultInjection).

#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/replay.h"
#include "src/service/service.h"
#include "src/service/stream.h"
#include "src/stream/doc_gen.h"

namespace xtc {
namespace {

std::vector<ServiceRequest> SmallBatch(int count) {
  StatusOr<std::vector<ServiceRequest>> batch =
      MakeFamilyBatch("filter", 3, count, 2);
  XTC_CHECK(batch.ok());
  return *std::move(batch);
}

ServiceRequest HostileRequest() {
  // NfaSchemaFamily: the Theorem 18 inclusion shape; determinization cost
  // 2^n lives in the compile, so this occupies a worker for a long time.
  StatusOr<std::vector<ServiceRequest>> batch = MakeFamilyBatch("nfa", 9, 1, 1);
  XTC_CHECK(batch.ok());
  return (*batch)[0];
}

TEST(ServiceOverloadTest, DrainCompletesQueuedWork) {
  TypecheckService::Options options;
  options.num_threads = 1;
  options.queue_capacity = 64;
  TypecheckService service(options);

  std::vector<std::future<ServiceResponse>> futures;
  for (ServiceRequest& request : SmallBatch(8)) {
    futures.push_back(service.Submit(std::move(request)));
  }
  DrainReport report = service.Stop(std::chrono::seconds(30));
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.cancelled, 0u);
  for (std::future<ServiceResponse>& future : futures) {
    ServiceResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.typechecks);
  }
  EXPECT_EQ(service.stats().completed, 8u);
}

TEST(ServiceOverloadTest, DrainDeadlineCancelsUnstartedWork) {
  TypecheckService::Options options;
  options.num_threads = 0;  // nobody will ever pop the queue
  options.queue_capacity = 16;
  TypecheckService service(options);

  std::vector<std::future<ServiceResponse>> futures;
  for (ServiceRequest& request : SmallBatch(4)) {
    futures.push_back(service.Submit(std::move(request)));
  }
  DrainReport report = service.Stop(std::chrono::milliseconds(10));
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.drained, 0u);
  EXPECT_EQ(report.cancelled, 4u);
  for (std::future<ServiceResponse>& future : futures) {
    ServiceResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(response.shed_reason, ShedReason::kStopping);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.drain_cancelled, 4u);
  EXPECT_EQ(stats.failed, 4u);
}

TEST(ServiceOverloadTest, StopIsIdempotentAndClosesAdmission) {
  TypecheckService::Options options;
  options.num_threads = 1;
  TypecheckService service(options);
  DrainReport first = service.Stop(std::chrono::milliseconds(100));
  DrainReport again = service.Stop(std::chrono::seconds(30));
  EXPECT_EQ(first.clean, again.clean);
  EXPECT_EQ(first.cancelled, again.cancelled);

  ServiceResponse shed = service.Submit(SmallBatch(1)[0]).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.shed_reason, ShedReason::kStopping);
  EXPECT_EQ(shed.retry_after_ms, 0u);  // not retryable: service going away
  EXPECT_EQ(service.stats().shed_stopping, 1u);
}

TEST(ServiceOverloadTest, SubmitVsStopRaceResolvesEveryFuture) {
  TypecheckService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 64;
  TypecheckService service(options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<ServiceRequest> batch = SmallBatch(4);
  std::vector<std::vector<std::future<ServiceResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futures[static_cast<std::size_t>(c)].push_back(
            service.Submit(batch[static_cast<std::size_t>(i) % batch.size()]));
      }
    });
  }
  // Stop races the submitting clients: some requests complete, some are
  // shed with `stopping`, some are cancelled at the drain deadline —
  // but every single future must resolve.
  DrainReport report = service.Stop(std::chrono::milliseconds(50));
  for (std::thread& client : clients) client.join();

  std::uint64_t ok = 0, shed = 0, cancelled_or_failed = 0;
  for (auto& client_futures : futures) {
    ASSERT_EQ(client_futures.size(), static_cast<std::size_t>(kPerClient));
    for (std::future<ServiceResponse>& future : client_futures) {
      ServiceResponse response = future.get();
      if (response.status.ok()) {
        ++ok;
      } else {
        ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted);
        (response.shed_reason == ShedReason::kStopping
             ? shed
             : cancelled_or_failed) += 1;
      }
    }
  }
  EXPECT_EQ(ok + shed + cancelled_or_failed,
            static_cast<std::uint64_t>(kClients * kPerClient));
  ServiceStats stats = service.stats();
  // Everything admitted was either completed or failed — nothing leaked.
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed);
  EXPECT_EQ(stats.drain_cancelled, report.cancelled);
}

TEST(ServiceOverloadTest, AdmitsExactlyUntilRejectLoad) {
  TypecheckService::Options options;
  options.num_threads = 0;  // deterministic: the queue only fills
  options.queue_capacity = 8;
  TypecheckService service(options);
  ASSERT_EQ(options.reject_load, 0.75);

  std::vector<ServiceRequest> batch = SmallBatch(9);
  std::vector<std::future<ServiceResponse>> futures;
  for (ServiceRequest& request : batch) {
    futures.push_back(service.Submit(std::move(request)));
  }
  // Submissions 1-6 see depth 0..5 (load < 0.75) and are admitted; an
  // admitted request runs the exact engines. Submissions 7-9 see depth 6
  // (load 0.75) and are shed.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.queue_depth, 6u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.shed_overload, 3u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
  for (std::size_t i = 6; i < futures.size(); ++i) {
    ServiceResponse shed = futures[i].get();
    EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(shed.shed_reason, ShedReason::kOverload);
    EXPECT_GT(shed.retry_after_ms, 0u);  // admission sheds are retryable
    std::string line = shed.ToJsonLine();
    EXPECT_EQ(line.find("\"tier\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"shed_reason\":\"overload\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"retry_after_ms\""), std::string::npos) << line;
  }
}

TEST(ServiceOverloadTest, DeadlinePressureShedsBeforeQueueing) {
  // Synthetic cost spike: a hostile compile occupies the only worker and
  // the cost prior is huge, so the predicted wait for a short-deadline
  // request exceeds its patience no matter whether the hostile request is
  // still queued or already in flight.
  TypecheckService::Options options;
  options.num_threads = 1;
  options.queue_capacity = 64;
  options.cost_prior_ms = 10000;
  TypecheckService service(options);

  std::future<ServiceResponse> hostile = service.Submit(HostileRequest());
  ServiceRequest urgent = SmallBatch(1)[0];
  urgent.deadline_ms = 50;
  ServiceResponse response = service.Submit(urgent).get();
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(response.shed_reason, ShedReason::kDeadline);
  EXPECT_GT(response.retry_after_ms, 0u);
  EXPECT_EQ(service.stats().shed_deadline, 1u);
  hostile.wait();  // hostile runs to completion under its own budget
}

TEST(ServiceOverloadTest, RetryBackoffIsDeterministic) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 2000;
  for (std::uint64_t attempt = 1; attempt <= 5; ++attempt) {
    std::uint64_t a = RetryBackoffMs(policy, attempt, 0, 42);
    std::uint64_t b = RetryBackoffMs(policy, attempt, 0, 42);
    EXPECT_EQ(a, b);  // same inputs, same backoff — reproducible runs
  }
}

TEST(ServiceOverloadTest, RetryBackoffGrowsCapsAndHonorsHints) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 2000;
  // Doubling base with at most 25% jitter on top.
  for (std::uint64_t attempt = 1; attempt <= 8; ++attempt) {
    std::uint64_t expected_base =
        std::min<std::uint64_t>(10ull << (attempt - 1), 2000);
    std::uint64_t v = RetryBackoffMs(policy, attempt, 0, 7);
    EXPECT_GE(v, expected_base);
    EXPECT_LE(v, expected_base + expected_base / 4 + 1);
  }
  // The server's retry_after hint floors the backoff.
  EXPECT_GE(RetryBackoffMs(policy, 1, 500, 7), 500u);
  // Huge attempt counts saturate at the cap (plus jitter), never overflow.
  EXPECT_LE(RetryBackoffMs(policy, 60, 0, 7), 2000u + 501u);
}

TEST(ServiceOverloadTest, SubmitWithRetrySucceedsAfterTransientShed) {
  // Queue of 1 with no workers: the first slot fills, the second submit
  // sheds queue-full. After Stop drains, retries against a live service
  // are exercised end-to-end in the loadgen harness; here we prove the
  // helper's terminal behavior: a non-retryable response is returned as-is.
  TypecheckService::Options options;
  options.num_threads = 1;
  TypecheckService service(options);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  RetryOutcome outcome =
      SubmitWithRetry(service, SmallBatch(1)[0], policy);
  EXPECT_TRUE(outcome.response.status.ok());
  EXPECT_EQ(outcome.attempts, 1u);  // no shed, no retry
  EXPECT_EQ(outcome.backoff_ms_total, 0u);
}

TEST(ServiceFaultInjectionTest, ServiceSweepYieldsWellFormedResponses) {
  // Ground truth for the batch, computed without any injector.
  std::vector<ServiceRequest> batch = SmallBatch(4);
  std::map<std::int64_t, bool> truth;
  {
    TypecheckService::Options options;
    options.num_threads = 0;
    TypecheckService service(options);
    for (const ServiceRequest& request : batch) {
      ServiceResponse response = service.Process(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      truth[request.id] = response.typechecks;
    }
  }

  // Count the service checkpoints one clean pass crosses.
  ServiceFaultInjector injector;
  auto run_batch = [&](TypecheckService& service) {
    std::vector<std::future<ServiceResponse>> futures;
    for (const ServiceRequest& request : batch) {
      futures.push_back(service.Submit(request));
    }
    std::vector<ServiceResponse> responses;
    for (std::future<ServiceResponse>& future : futures) {
      responses.push_back(future.get());
    }
    return responses;
  };
  std::uint64_t total_checkpoints = 0;
  {
    injector.FailAt(0);  // disarmed: count only
    TypecheckService::Options options;
    options.num_threads = 1;
    options.fault_injector = &injector;
    TypecheckService service(options);
    for (const ServiceResponse& response : run_batch(service)) {
      ASSERT_TRUE(response.status.ok());
    }
    total_checkpoints = injector.crossed();
  }
  ASSERT_GT(total_checkpoints, 0u);

  // The sweep: fail the n-th checkpoint for every n. Every injected
  // failure must surface as a well-formed kResourceExhausted response —
  // never a hang (future.get returns), never a torn cache entry (the
  // disarmed re-run on the same service still matches ground truth).
  for (std::uint64_t n = 1; n <= total_checkpoints; ++n) {
    injector.FailAt(n);
    TypecheckService::Options options;
    options.num_threads = 1;
    options.fault_injector = &injector;
    TypecheckService service(options);
    std::vector<ServiceResponse> responses = run_batch(service);
    ASSERT_NE(injector.fired(), nullptr) << "n=" << n;
    int injected = 0;
    for (const ServiceResponse& response : responses) {
      if (response.status.ok()) continue;
      EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
          << "n=" << n << ": " << response.status.ToString();
      EXPECT_NE(response.status.message().find("injected fault"),
                std::string::npos)
          << "n=" << n << ": " << response.status.ToString();
      ++injected;
    }
    EXPECT_EQ(injected, 1) << "n=" << n << " fired at " << injector.fired();

    injector.FailAt(0);  // disarm; same service, same cache
    for (const ServiceResponse& response : run_batch(service)) {
      ASSERT_TRUE(response.status.ok())
          << "after n=" << n << ": " << response.status.ToString();
      EXPECT_EQ(response.typechecks, truth[response.id]) << "n=" << n;
    }
  }
}

// Streams bypass the bounded worker queue, so the open-session count is
// their backpressure surface: past max_open_streams an OpenStream is shed
// up front with a retry hint, and any Finish (or abandonment) frees a slot.
TEST(ServiceOverloadTest, OpenStreamCapShedsWithRetryHint) {
  ServiceRequest request;
  {
    StatusOr<std::vector<ServiceRequest>> batch =
        MakeFamilyBatch("vstream", 50, 1, 1);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    request = (*batch)[0];
  }
  request.doc.clear();
  request.chunked = true;

  TypecheckService::Options options;
  options.num_threads = 1;
  options.max_open_streams = 2;
  TypecheckService service(options);

  std::unique_ptr<StreamSession> first = service.OpenStream(request);
  std::unique_ptr<StreamSession> second = service.OpenStream(request);
  EXPECT_TRUE(first->stream_status().ok());
  EXPECT_TRUE(second->stream_status().ok());

  // Third open: past the cap. Shed before any setup work, with a clamped
  // retry hint, and the response is well-formed without a chunk pushed.
  std::unique_ptr<StreamSession> third = service.OpenStream(request);
  EXPECT_FALSE(third->stream_status().ok());
  ServiceResponse shed = third->Finish();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.shed_reason, ShedReason::kStreamLimit);
  EXPECT_GE(shed.retry_after_ms, 10u);
  EXPECT_LE(shed.retry_after_ms, 5000u);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.open_streams, 2u);
  EXPECT_EQ(stats.shed_stream_limit, 1u);

  // Finish frees the slot: the next open is admitted again.
  first->Finish();
  EXPECT_EQ(service.stats().open_streams, 1u);
  std::unique_ptr<StreamSession> fourth = service.OpenStream(request);
  EXPECT_TRUE(fourth->stream_status().ok());
  EXPECT_EQ(service.stats().open_streams, 2u);

  // An abandoned session (destroyed unfinished) also frees its slot.
  fourth.reset();
  EXPECT_EQ(service.stats().open_streams, 1u);

  // max_open_streams = 0 disables the cap entirely.
  TypecheckService::Options unlimited;
  unlimited.num_threads = 1;
  unlimited.max_open_streams = 0;
  TypecheckService uncapped(unlimited);
  std::vector<std::unique_ptr<StreamSession>> many;
  for (int i = 0; i < 8; ++i) {
    many.push_back(uncapped.OpenStream(request));
    EXPECT_TRUE(many.back()->stream_status().ok());
  }
}

// The streaming sessions cross the same checkpoint ladder (enqueue,
// execute, compile, cache-adopt, respond) on the caller's thread. Sweep
// every crossing: each must yield exactly one well-formed injected-fault
// response, and a disarmed re-run on the same service (same cache) must
// still complete — no torn cache entries, no lost stats.
TEST(ServiceFaultInjectionTest, StreamSessionSweepYieldsWellFormedResponses) {
  const std::string doc =
      RenderDoc(StreamDocSpec{StreamDocSpec::Shape::kMixed, 200});
  ServiceRequest request;
  {
    StatusOr<std::vector<ServiceRequest>> batch =
        MakeFamilyBatch("vstream", 200, 1, 1);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    request = (*batch)[0];
  }
  request.doc.clear();
  request.chunked = true;

  auto run_stream = [&](TypecheckService& service) {
    std::unique_ptr<StreamSession> session = service.OpenStream(request);
    for (std::size_t fed = 0; fed < doc.size(); fed += 64) {
      session->Push(std::string_view(doc).substr(fed, 64));
    }
    return session->Finish();
  };

  ServiceFaultInjector injector;
  injector.FailAt(0);  // disarmed: count the checkpoints one stream crosses
  TypecheckService::Options options;
  options.num_threads = 1;
  options.fault_injector = &injector;
  std::uint64_t total_checkpoints = 0;
  {
    TypecheckService service(options);
    ServiceResponse clean = run_stream(service);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    EXPECT_TRUE(clean.valid);
    total_checkpoints = injector.crossed();
  }
  ASSERT_GT(total_checkpoints, 0u);

  for (std::uint64_t n = 1; n <= total_checkpoints; ++n) {
    injector.FailAt(n);
    TypecheckService service(options);  // fresh cache: compile paths re-run
    ServiceResponse response = run_stream(service);
    ASSERT_NE(injector.fired(), nullptr) << "n=" << n;
    EXPECT_FALSE(response.status.ok()) << "n=" << n;
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << "n=" << n << ": " << response.status.ToString();
    EXPECT_NE(response.status.message().find("injected fault"),
              std::string::npos)
        << "n=" << n << ": " << response.status.ToString();

    injector.FailAt(0);  // disarm; same service, warm cache
    ServiceResponse retry = run_stream(service);
    ASSERT_TRUE(retry.status.ok())
        << "after n=" << n << ": " << retry.status.ToString();
    EXPECT_TRUE(retry.valid) << "n=" << n;
  }
}

}  // namespace
}  // namespace xtc
