// Multi-threaded service stress: many client threads submitting mixed
// workload-family batches against a small shared cache, checked against
// single-threaded ground truth. Run under the tsan preset in CI — this is
// the test that exercises every cross-thread contract of the service layer
// (src/base/README.md): shared immutable artifacts, the universe alphabet
// registry, cache eviction racing with artifact use, and the queue.

#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/replay.h"
#include "src/service/service.h"

namespace xtc {
namespace {

struct Truth {
  bool typechecks = false;
};

// Mixed batch across families and sizes; small sizes keep the stress test
// fast while still covering selector compilation, determinization, RE+ and
// failing instances.
std::vector<ServiceRequest> MixedBatch() {
  std::vector<ServiceRequest> batch;
  const std::pair<const char*, int> kMix[] = {
      {"filter", 2}, {"filter", 4}, {"failing", 3}, {"width", 2},
      {"relab", 3},  {"replus", 2}, {"xpath", 3},   {"nfa", 5},
  };
  int id = 0;
  for (const auto& [family, n] : kMix) {
    StatusOr<std::vector<ServiceRequest>> sub =
        MakeFamilyBatch(family, n, /*count=*/2, /*distinct=*/2);
    XTC_CHECK(sub.ok());
    for (ServiceRequest& request : *sub) {
      request.id = ++id;
      batch.push_back(std::move(request));
    }
  }
  return batch;
}

std::map<std::int64_t, Truth> GroundTruth(
    const std::vector<ServiceRequest>& batch) {
  TypecheckService::Options options;
  options.num_threads = 0;  // Process() runs synchronously on this thread
  TypecheckService service(options);
  std::map<std::int64_t, Truth> truth;
  for (const ServiceRequest& request : batch) {
    ServiceResponse response = service.Process(request);
    XTC_CHECK_MSG(response.status.ok(), response.status.ToString().c_str());
    truth[request.id] = Truth{response.typechecks};
  }
  return truth;
}

TEST(ServiceStressTest, ManyClientsMixedWorkloadsMatchGroundTruth) {
  std::vector<ServiceRequest> batch = MixedBatch();
  std::map<std::int64_t, Truth> truth = GroundTruth(batch);

  constexpr int kClients = 8;
  constexpr int kRounds = 6;
  TypecheckService::Options options;
  options.num_threads = 4;
  options.queue_capacity = 4096;
  // A deliberately tight cache: eviction and recompilation race with
  // artifact use from other workers.
  options.cache.max_bytes = 64 << 10;
  options.cache.max_universes = 4;
  TypecheckService service(options);

  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<ServiceResponse>>> futures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        // Vary submission order per client so cache access patterns differ.
        for (std::size_t i = 0; i < batch.size(); ++i) {
          std::size_t pick =
              (i * 7 + static_cast<std::size_t>(c + round)) % batch.size();
          futures[static_cast<std::size_t>(c)].push_back(
              service.Submit(batch[pick]));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  int checked = 0;
  for (auto& client_futures : futures) {
    for (std::future<ServiceResponse>& future : client_futures) {
      ServiceResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_EQ(truth.count(response.id), 1u);
      EXPECT_EQ(response.typechecks, truth[response.id].typechecks)
          << "request " << response.id;
      ++checked;
    }
  }
  EXPECT_EQ(checked, kClients * kRounds * static_cast<int>(batch.size()));

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(checked));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.shed, 0u);
  // The tight universe cap forces constant cascade eviction and
  // recompilation; the point is correctness under thrash, not hit rate.
  EXPECT_GT(stats.cache.misses, 0u);
  EXPECT_LE(stats.cache.bytes, options.cache.max_bytes);
}

TEST(ServiceStressTest, SheddingUnderOverloadIsWellFormed) {
  StatusOr<std::vector<ServiceRequest>> batch =
      MakeFamilyBatch("filter", 3, 64, 4);
  ASSERT_TRUE(batch.ok());

  TypecheckService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 8;  // guaranteed overflow under 4 client threads
  TypecheckService service(options);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<ServiceResponse>>> futures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const ServiceRequest& request : *batch) {
        futures[static_cast<std::size_t>(c)].push_back(
            service.Submit(request));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  for (auto& client_futures : futures) {
    for (std::future<ServiceResponse>& future : client_futures) {
      ServiceResponse response = future.get();
      if (response.status.ok()) {
        // Every admitted request gets the exact answer, however loaded
        // the service was: filter instances typecheck.
        EXPECT_TRUE(response.typechecks) << "request " << response.id;
        EXPECT_EQ(response.shed_reason, ShedReason::kNone);
        ++ok;
      } else {
        // Shed responses are immediate, well-formed, and echo the id.
        EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
        ++shed;
      }
    }
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(ok, stats.completed);
  EXPECT_EQ(shed, stats.shed);
  EXPECT_EQ(ok + shed,
            static_cast<std::uint64_t>(kClients) * batch->size());
  EXPECT_GT(ok, 0u);  // workers made progress even while overloaded
}

TEST(ServiceStressTest, ConcurrentFirstCompileYieldsOneArtifact) {
  // All clients miss the same keys at t=0: everyone may compile, but the
  // cache must converge on one artifact per key and agree on results.
  StatusOr<std::vector<ServiceRequest>> batch =
      MakeFamilyBatch("nfa", 6, 8, 1);
  ASSERT_TRUE(batch.ok());
  TypecheckService::Options options;
  options.num_threads = 8;
  TypecheckService service(options);
  std::vector<std::future<ServiceResponse>> futures;
  for (ServiceRequest& request : *batch) {
    futures.push_back(service.Submit(std::move(request)));
  }
  for (std::future<ServiceResponse>& future : futures) {
    ServiceResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.typechecks);
  }
  ServiceStats stats = service.stats();
  // 8 identical requests × 3 component lookups: every lookup resolved.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 24u);
  // One artifact per distinct key: the nfa family uses the same schema as
  // input and output type, so the three components dedupe to two entries.
  EXPECT_EQ(stats.cache.entries, 2u);
}

}  // namespace
}  // namespace xtc
