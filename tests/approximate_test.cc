#include "src/core/approximate.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/brute_force.h"
#include "src/core/paper_examples.h"
#include "src/core/trac.h"
#include "src/td/widths.h"
#include "src/workload/families.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

TEST(ApproximateTest, ProvesLooseSchemasSafe) {
  // WidthFamily's output schema (r -> b*, b -> b*) is loose enough for the
  // star-over-approximation to succeed.
  PaperExample ex = WidthFamily(2, 1);
  StatusOr<ApproximateResult> r =
      TypecheckApproximate(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, ApproximateVerdict::kTypechecks);
}

TEST(ApproximateTest, IsIncompleteOnTheBookExample) {
  // The ToC instance typechecks (complete engines prove it) but the
  // approximation loses the title-count structure: kUnknown. This is the
  // complete-vs-incomplete gap of the paper's introduction.
  PaperExample ex = MakeBookExample(false);
  StatusOr<TypecheckResult> complete =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(complete.ok());
  ASSERT_TRUE(complete->typechecks);
  StatusOr<ApproximateResult> approx =
      TypecheckApproximate(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->verdict, ApproximateVerdict::kUnknown);
}

TEST(ApproximateTest, FlagsGenuineViolations) {
  PaperExample ex = FailingFilterFamily(2);
  StatusOr<ApproximateResult> r =
      TypecheckApproximate(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ApproximateVerdict::kUnknown);
}

TEST(ApproximateTest, RootMismatchIsUnknown) {
  PaperExample ex = MakeBookExample(false);
  Transducer t(ex.alphabet.get());
  t.AddState("q0");
  t.SetInitial(0);
  ASSERT_TRUE(t.SetRuleFromString("q0", "book", "title").ok());
  StatusOr<ApproximateResult> r = TypecheckApproximate(t, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ApproximateVerdict::kUnknown);
}

// Random instances the approximation proves safe: seeds it cannot prove
// are passed over, not counted, so every case checks a kTypechecks claim.
// Built once.
const std::vector<PaperExample>& ProvedRandomInstances() {
  static const std::vector<PaperExample>* instances = [] {
    RandomOptions opts;
    opts.num_symbols = 3;
    opts.num_states = 3;
    auto* out = new std::vector<PaperExample>;
    for (std::uint32_t seed = 0; out->size() < 80; ++seed) {
      PaperExample ex = RandomInstance(seed, opts, false);
      StatusOr<ApproximateResult> approx =
          TypecheckApproximate(*ex.transducer, *ex.din, *ex.dout);
      if (approx.ok() && approx->verdict == ApproximateVerdict::kTypechecks) {
        out->push_back(std::move(ex));
      }
    }
    return out;
  }();
  return *instances;
}

// Soundness property: whenever the approximation says kTypechecks, the
// complete engine (or the bounded oracle) must agree. The parameter indexes
// the proved instances.
class ApproximateSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(ApproximateSoundnessTest, NeverClaimsSafetyWrongly) {
  const PaperExample& ex =
      ProvedRandomInstances()[static_cast<std::size_t>(GetParam())];
  // Sound claim: no counterexample may exist.
  WidthAnalysis w = AnalyzeWidths(*ex.transducer);
  if (w.dpw_bounded && w.copying_width * w.deletion_path_width <= 6) {
    TypecheckOptions topts;
    topts.want_counterexample = false;
    StatusOr<TypecheckResult> complete =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, topts);
    ASSERT_TRUE(complete.ok());
    EXPECT_TRUE(complete->typechecks) << GetParam();
  } else {
    BruteForceOptions bf;
    bf.max_depth = 4;
    bf.max_width = 3;
    bf.max_trees = 20000;
    StatusOr<TypecheckResult> brute =
        TypecheckBruteForce(*ex.transducer, *ex.din, *ex.dout, bf);
    ASSERT_TRUE(brute.ok());
    EXPECT_TRUE(brute->typechecks) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximateSoundnessTest,
                         ::testing::Range(0, 80));

}  // namespace
}  // namespace xtc
