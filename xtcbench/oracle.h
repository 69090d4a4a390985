// The correctness oracle: every response the benchmark times is checked
// against what its key must produce.
//  - typecheck verdicts equal the family's known answer;
//  - a key's first counterexample is re-parsed and must pass
//    VerifyCounterexample on the benchmark's own copy of the instance, and
//    every later response for that key must carry the same bytes;
//  - validate verdicts equal the generator's valid/mutated label;
//  - identity transforms echo their input document;
//  - DOM and stream outputs of the copying transducer are byte-equal.
#ifndef XTCBENCH_ORACLE_H_
#define XTCBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "src/service/request.h"
#include "workloads.h"

namespace xbench {

class Oracle {
 public:
  explicit Oracle(const Workload& workload);

  /// Returns the empty string when `response` is a correct answer for
  /// `key`, otherwise what was wrong. Call inside an Untracked scope.
  std::string Check(int key, const xtc::ServiceResponse& response);

 private:
  const Workload& workload_;
  std::vector<std::string> first_counterexample_;  ///< per key
  std::vector<bool> seen_;                          ///< per key
  std::vector<std::string> group_output_;           ///< per output group
  std::vector<bool> group_seen_;
};

}  // namespace xbench

#endif  // XTCBENCH_ORACLE_H_
