// The two runs of the request benchmark.
//
// RunUntraced is the end-to-end measurement: closed loop, one client
// thread, concurrency 1. Each timed request takes one pre-generated NDJSON
// line through ParseServiceRequest -> TypecheckService::Process (a service
// with no worker threads) -> ServiceResponse::ToJsonLine, which is xtcd's
// per-line path minus the worker pool, and the oracle checks the answer.
//
// RunTraced re-executes the same requests as the sequence of public calls
// TypecheckService::Execute makes, with a span around each call, to give
// the per-layer numbers.
#ifndef XTCBENCH_DRIVE_H_
#define XTCBENCH_DRIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "workloads.h"

namespace xbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct RunConfig {
  double seconds = 10;
  std::string trace_out;   ///< where the traced run writes its spans
};

/// Both print their reports ('#'-prefixed lines) to stdout.
xtc::StatusOr<RunResult> RunUntraced(const Workload& workload,
                                     const RunConfig& config);
xtc::StatusOr<RunResult> RunTraced(const Workload& workload,
                                   const RunConfig& config);

}  // namespace xbench

#endif  // XTCBENCH_DRIVE_H_
