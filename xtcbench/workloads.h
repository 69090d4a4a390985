// Seeded inputs for the request benchmark. A workload is a pool of NDJSON
// request lines that the timed loop cycles through, the "keys" (distinct
// requests) those lines are instances of, and what the oracle expects of
// each key. The seed fixes the request order, the renaming salts and the
// document mutations; the same seed always yields the same pool.
#ifndef XTCBENCH_WORKLOADS_H_
#define XTCBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/core/paper_examples.h"
#include "src/service/request.h"
#include "src/service/service.h"

namespace xbench {

/// What a correct response to one key looks like.
struct KeyInfo {
  int cls = 0;  ///< index into Workload::classes
  xtc::ServiceOp op = xtc::ServiceOp::kTypecheck;
  /// typecheck: the known verdict; validate ops: the document is valid.
  bool expect = true;
  /// typecheck keys expected to fail carry the instance their
  /// counterexample is verified against (Definition 9).
  std::shared_ptr<const xtc::PaperExample> instance;
  /// transforms: the output must equal Workload::docs[identity_doc].
  int identity_doc = -1;
  /// transforms: every key of one group must produce byte-equal output.
  int output_group = -1;
};

struct PoolLine {
  std::string line;
  int key = 0;
  /// Offsets in `line` of a 12-hex-digit salt that the driver rewrites with
  /// RequestSalt() before every use of the line (StampSalt), so the line
  /// poses a new transducer on every request of a run; empty for lines that
  /// are served as generated.
  std::vector<std::size_t> salt_at;
};

struct Workload {
  std::string name;
  std::vector<std::string> classes;
  std::vector<KeyInfo> keys;
  std::vector<PoolLine> pool;       ///< cycled by the timed loop
  std::vector<std::size_t> prewarm;  ///< pool indices set-up runs once
  std::vector<std::string> docs;     ///< documents identity transforms echo
  xtc::TypecheckService::Options service;
  std::uint64_t seed = 0;
};

/// Builds the named workload for `seed`.
xtc::StatusOr<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed);

/// The salt of the run's `request`-th request (counted from 0 over the
/// whole run, across passes over the pool). Set-up lines use
/// kSetUpRequest, which no timed request reaches.
std::uint64_t RequestSalt(std::uint64_t seed, std::uint64_t request);
inline constexpr std::uint64_t kSetUpRequest = ~std::uint64_t{0};

/// Rewrites the salt fields of `line` (if any) for the given request.
void StampSalt(PoolLine* line, std::uint64_t seed, std::uint64_t request);

/// FNV-1a digest of the pool's lines in order: equal digests mean the two
/// runs served identical traffic.
std::uint64_t PoolDigest(const Workload& workload);

}  // namespace xbench

#endif  // XTCBENCH_WORKLOADS_H_
