#include "oracle.h"

#include <algorithm>

#include "src/base/arena.h"
#include "src/core/typecheck.h"
#include "src/tree/codec.h"

namespace xbench {

Oracle::Oracle(const Workload& workload)
    : workload_(workload),
      first_counterexample_(workload.keys.size()),
      seen_(workload.keys.size(), false) {
  int groups = 0;
  for (const KeyInfo& key : workload.keys) {
    groups = std::max(groups, key.output_group + 1);
  }
  group_output_.resize(groups);
  group_seen_.assign(groups, false);
}

std::string Oracle::Check(int k, const xtc::ServiceResponse& response) {
  const KeyInfo& key = workload_.keys[k];
  if (!response.status.ok()) return "status " + response.status.ToString();
  if (response.op != key.op) return "wrong op in response";
  switch (key.op) {
    case xtc::ServiceOp::kTypecheck: {
      if (response.approximate) return "approximate verdict";
      if (response.typechecks != key.expect) return "wrong verdict";
      if (key.expect) {
        if (!response.counterexample.empty()) {
          return "counterexample on a typechecking instance";
        }
        return "";
      }
      if (response.counterexample.empty()) return "missing counterexample";
      if (seen_[k]) {
        return response.counterexample == first_counterexample_[k]
                   ? ""
                   : "counterexample differs from the key's first one";
      }
      const xtc::PaperExample& ex = *key.instance;
      xtc::Arena arena;
      xtc::TreeBuilder builder(&arena);
      xtc::StatusOr<xtc::Node*> tree =
          xtc::ParseTerm(response.counterexample, ex.alphabet.get(), &builder);
      if (!tree.ok()) return "unparsable counterexample";
      if (!xtc::VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     *tree)) {
        return "counterexample fails Definition 9";
      }
      seen_[k] = true;
      first_counterexample_[k] = response.counterexample;
      return "";
    }
    case xtc::ServiceOp::kValidate:
    case xtc::ServiceOp::kValidateStream:
      return response.valid == key.expect ? "" : "wrong validity";
    case xtc::ServiceOp::kTransform:
    case xtc::ServiceOp::kTransformStream: {
      if (key.identity_doc >= 0) {
        return response.output == workload_.docs[key.identity_doc]
                   ? ""
                   : "identity transform changed the document";
      }
      const int g = key.output_group;
      if (!group_seen_[g]) {
        group_seen_[g] = true;
        group_output_[g] = response.output;
        return response.output.empty() ? "empty transform output" : "";
      }
      return response.output == group_output_[g]
                 ? ""
                 : "DOM and stream copying outputs differ";
    }
  }
  return "unknown op";
}

}  // namespace xbench
