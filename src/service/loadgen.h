#ifndef XTC_SERVICE_LOADGEN_H_
#define XTC_SERVICE_LOADGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/service/service.h"

namespace xtc {

/// One traffic class in a mixed load schedule: requests drawn from a
/// workload family (src/workload/families.h) at a relative weight. The
/// canonical overload mix is warm (one hot cache key), cold (many distinct
/// keys, every arrival compiling), and hostile (NfaSchemaFamily — the
/// Theorem 18 EXPTIME inclusion shape whose cost lives in determinization).
struct LoadClass {
  std::string name;      ///< report key ("warm", "cold", "hostile", ...)
  std::string family;    ///< MakeFamilyBatch family
  int n = 4;             ///< family size parameter
  int distinct = 1;      ///< distinct compile-cache keys cycled through
  double weight = 1.0;   ///< relative share of arrivals
  std::uint64_t deadline_ms = 0;  ///< per-request deadline (0 = none)
  bool prewarm = false;  ///< compile all variants before the clock starts
};

struct LoadgenOptions {
  double offered_qps = 100;  ///< open-loop arrival rate
  double duration_s = 2.0;   ///< schedule length (arrivals = qps x duration)
  std::uint64_t seed = 1;    ///< class-pick determinism
  TypecheckService::Options service;
  std::vector<LoadClass> classes;
};

/// Per-class outcome accounting. `offered` always equals
/// ok + shed + failed once RunLoadgen returns: every arrival is accounted
/// for, which is the harness's zero-hang proof. Latencies are server-side
/// end-to-end (queue wait + execution) over ok responses.
struct ClassReport {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;    ///< responses carrying a shed_reason
  std::uint64_t failed = 0;  ///< ran and finished with an error
  std::uint64_t failed_other = 0;  ///< failures not kResourceExhausted
  double failed_max_ms = 0;  ///< exact max queue + execution over failures
  std::uint64_t deadline_ms = 0;  ///< the class's per-request deadline
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
};

struct LoadgenReport {
  double offered_qps = 0;
  double achieved_qps = 0;  ///< ok responses per wall-clock second
  double wall_s = 0;
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::map<std::string, ClassReport> classes;
  ServiceStats service;  ///< the service's own telemetry at shutdown
};

/// Replays an open-loop mixed schedule against a fresh in-process service:
/// arrivals are scheduled at `offered_qps` regardless of completions (a
/// slow service faces a growing backlog, exactly like a real client
/// population — no coordinated omission), classes are picked by a
/// deterministic weighted hash of the arrival index, and every future is
/// harvested before returning. Ends with a graceful Stop() so queued work
/// is either finished or cleanly cancelled, never leaked.
StatusOr<LoadgenReport> RunLoadgen(const LoadgenOptions& options);

/// Closed-loop calibration: measures the mean warm-cache cost of `cls`
/// (after compiling its variants once) over `samples` sequential requests
/// and returns threads / mean_cost — the rough max throughput the service
/// can sustain. The overload harness drives 2x this rate.
StatusOr<double> EstimateSustainableQps(const LoadgenOptions& options,
                                        const LoadClass& cls,
                                        int samples = 32);

}  // namespace xtc

#endif  // XTC_SERVICE_LOADGEN_H_
