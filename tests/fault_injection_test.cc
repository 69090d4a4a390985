// Deterministic fault-injection sweep: every budget checkpoint in every
// engine is a potential failure point. For each engine on a small instance
// we re-run with set_fail_at_checkpoint(n) for n = 1, 2, ... until the run
// completes without the fault firing (plus a geometric tail to hit deep
// points without quadratic cost). Each injected failure must surface as a
// clean kResourceExhausted — or be absorbed by a documented best-effort
// path (dropped counterexamples) — and never crash, abort, or leak (the
// sanitizer preset runs this test).

#include <gtest/gtest.h>

#include <functional>

#include "src/base/budget.h"
#include "src/core/almost_always.h"
#include "src/core/approximate.h"
#include "src/core/brute_force.h"
#include "src/core/minvast.h"
#include "src/core/paper_examples.h"
#include "src/core/relab.h"
#include "src/core/replus.h"
#include "src/core/trac.h"
#include "src/core/typecheck.h"
#include "src/fa/dfa.h"
#include "src/nta/analysis.h"
#include "src/nta/determinize.h"
#include "src/nta/lazy.h"
#include "src/nta/nta.h"
#include "src/nta/product.h"
#include "src/schema/witness.h"
#include "src/stream/doc_gen.h"
#include "src/stream/event_reader.h"
#include "src/stream/transform.h"
#include "src/stream/validate.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

// Sweeps injection points of `run`. Returns the number of distinct points
// exercised. Invariant checked at every point: the run either reports the
// injected exhaustion as kResourceExhausted or absorbs it on a documented
// best-effort path (Status OK) — nothing else, and no aborts.
int SweepInjection(const char* name, const std::function<Status(Budget*)>& run,
                   std::uint64_t dense_cap = 80) {
  int points = 0;
  for (std::uint64_t n = 1; n <= dense_cap; ++n) {
    Budget b;
    b.set_fail_at_checkpoint(n);
    Status s = run(&b);
    if (b.cause() != ExhaustionCause::kInjected) {
      // The run finished before reaching checkpoint n: sweep complete.
      EXPECT_TRUE(s.ok()) << name << " n=" << n << ": " << s.ToString();
      return points;
    }
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kResourceExhausted)
        << name << " n=" << n << ": " << s.ToString();
    ++points;
  }
  // Geometric tail: deep failure points, sampled.
  for (std::uint64_t n = dense_cap * 2; n < (std::uint64_t{1} << 22); n *= 2) {
    Budget b;
    b.set_fail_at_checkpoint(n);
    Status s = run(&b);
    if (b.cause() != ExhaustionCause::kInjected) {
      EXPECT_TRUE(s.ok()) << name << " n=" << n << ": " << s.ToString();
      break;
    }
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kResourceExhausted)
        << name << " n=" << n << ": " << s.ToString();
    ++points;
  }
  return points;
}

TEST(FaultInjectionTest, SweepAllEnginesCleanly) {
  int total = 0;

  {
    PaperExample ex = MakeBookExample(/*with_summary=*/true);
    total += SweepInjection("trac", [&](Budget* b) {
      TypecheckOptions opts;
      opts.budget = b;
      return TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts).status();
    });
  }
  {
    // Failing instance with counterexample construction: exercises the
    // best-effort witness paths.
    PaperExample ex = MakeBookExample(/*with_summary=*/false);
    EXPECT_TRUE(ex.dout->SetRule("book", "title (chapter title)+").ok());
    total += SweepInjection("trac-cex", [&](Budget* b) {
      TypecheckOptions opts;
      opts.budget = b;
      return TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts).status();
    });
  }
  {
    PaperExample ex = RePlusCopyFamily(4);
    total += SweepInjection("replus", [&](Budget* b) {
      TypecheckOptions opts;
      opts.budget = b;
      return TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout, opts).status();
    });
    total += SweepInjection("minvast", [&](Budget* b) {
      TypecheckOptions opts;
      opts.budget = b;
      return TypecheckMinVast(*ex.transducer, *ex.din, *ex.dout, opts)
          .status();
    });
  }
  {
    // Both shapes of the Theorem 20 query: a DTD(DFA) d_out is complemented
    // before #-elimination (two existential factors, the eager fold), a
    // DTD(NFA) d_out is complemented on the fly (a determinized factor, the
    // lazy engine). The eager fold of a determinized factor is swept
    // directly below ("eager-emptiness").
    struct Instance {
      const char* name;
      PaperExample ex;
    };
    const Instance instances[] = {{"delrelab", RelabFamily(3)},
                                  {"delrelab-nfa", NfaSchemaFamily(2)}};
    for (const Instance& inst : instances) {
      const PaperExample& ex = inst.ex;
      total += SweepInjection(inst.name, [&](Budget* b) {
        TypecheckOptions opts;
        opts.budget = b;
        return TypecheckDelRelab(*ex.transducer, *ex.din, *ex.dout, opts)
            .status();
      });
    }
  }
  {
    // The lazy frontier engine, directly: every discovered-state expansion
    // checkpoints the budget ("LazyEmptiness"), and the eager reference on
    // the same spec for comparison.
    PaperExample ex = RelabFamily(3);
    Nta a = Nta::FromDtd(*ex.din);
    Nta c = Nta::FromDtd(*ex.dout);
    total += SweepInjection("lazy-emptiness", [&](Budget* b) {
      LazyProductSpec spec;
      spec.AddNta(&a);
      spec.AddDeterminized(&c, /*complement=*/true);
      LazyOptions opts;
      opts.budget = b;
      return LazyEmptiness(spec, nullptr, opts).status();
    });
    total += SweepInjection("eager-emptiness", [&](Budget* b) {
      LazyProductSpec spec;
      spec.AddNta(&a);
      spec.AddDeterminized(&c, /*complement=*/true);
      LazyOptions opts;
      opts.budget = b;
      return EagerEmptiness(spec, nullptr, opts).status();
    });
  }
  {
    PaperExample ex = MakeBookExample(/*with_summary=*/false);
    total += SweepInjection("brute-force", [&](Budget* b) {
      BruteForceOptions bf;
      bf.max_depth = 3;
      bf.max_width = 3;
      bf.max_trees = 5000;
      bf.budget = b;
      return TypecheckBruteForce(*ex.transducer, *ex.din, *ex.dout, bf)
          .status();
    });
  }
  {
    PaperExample ex = FilterFamily(2);
    total += SweepInjection("almost-always", [&](Budget* b) {
      return TypechecksAlmostAlways(*ex.transducer, *ex.din, *ex.dout,
                                    /*max_states=*/200000, b)
          .status();
    });
  }
  {
    PaperExample ex = MakeBookExample(/*with_summary=*/true);
    total += SweepInjection("approximate", [&](Budget* b) {
      return TypecheckApproximate(*ex.transducer, *ex.din, *ex.dout,
                                  /*max_dfa_states=*/1 << 14, b)
          .status();
    });
    // Library-level governed primitives.
    Nta ain = Nta::FromDtd(*ex.din);
    total += SweepInjection("determinize", [&](Budget* b) {
      return DeterminizeToDtac(ain, /*max_states=*/200000, b).status();
    });
    total += SweepInjection("nta-analysis", [&](Budget* b) {
      XTC_ASSIGN_OR_RETURN(Nta product, Intersect(ain, ain, b));
      XTC_ASSIGN_OR_RETURN(bool empty, IsEmptyLanguage(product, b));
      (void)empty;
      return IsFiniteLanguage(product, b).status();
    });
    total += SweepInjection("witness", [&](Budget* b) {
      XTC_RETURN_IF_ERROR(MinimalTreeCosts(*ex.din, b).status());
      Arena arena;
      TreeBuilder builder(&arena);
      return MinimalValidTree(*ex.din, ex.din->start(), &builder, b).status();
    });
  }

  // The acceptance bar: the sweep must exercise at least 200 distinct
  // checkpoint failure points across the engines.
  EXPECT_GE(total, 200) << "fault-injection sweep coverage shrank";
}

// A fault injected mid-exploration must never leave a partially-interned
// state table observable to a retry: the export target — including one
// already holding a prior good snapshot, as the compile cache's entries do
// — stays byte-for-byte untouched on every failure, and a retry resuming
// from it still agrees with the eager reference.
TEST(FaultInjectionTest, LazyInjectionLeavesNoPartialSnapshotBehind) {
  PaperExample ex = RelabFamily(3);
  Nta a = Nta::FromDtd(*ex.din);
  Nta c = Nta::FromDtd(*ex.dout);
  auto make_spec = [&] {
    LazyProductSpec spec;
    spec.AddNta(&a);
    spec.AddDeterminized(&c, /*complement=*/true);
    return spec;
  };
  auto tables_equal = [](const LazySnapshot& x, const LazySnapshot& y) {
    if (x.complete != y.complete || x.empty != y.empty ||
        x.det_tables.size() != y.det_tables.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x.det_tables.size(); ++i) {
      if (x.det_tables[i].pool != y.det_tables[i].pool ||
          x.det_tables[i].offsets != y.det_tables[i].offsets) {
        return false;
      }
    }
    return true;
  };

  LazyProductSpec spec = make_spec();
  StatusOr<EmptinessOutcome> eager = EagerEmptiness(spec, nullptr);
  ASSERT_TRUE(eager.ok());

  // A clean run exporting the reference snapshot.
  LazySnapshot good;
  LazyOptions export_opts;
  export_opts.export_snapshot = &good;
  ASSERT_TRUE(LazyEmptiness(spec, nullptr, export_opts).ok());
  ASSERT_TRUE(good.complete);

  int injected = 0;
  for (std::uint64_t n = 1; n <= 200; ++n) {
    Budget b;
    b.set_fail_at_checkpoint(n);
    LazySnapshot prior = good;  // the cached artifact a retry would see
    LazyOptions opts;
    opts.budget = &b;
    opts.export_snapshot = &prior;
    StatusOr<EmptinessOutcome> out = LazyEmptiness(spec, nullptr, opts);
    if (b.cause() != ExhaustionCause::kInjected) break;
    ++injected;
    ASSERT_FALSE(out.ok()) << "n=" << n;
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    // The failed run must not have touched the prior snapshot...
    EXPECT_TRUE(tables_equal(prior, good)) << "n=" << n;
    // ...and a retry resuming from it agrees with the eager reference.
    LazyOptions retry_opts;
    retry_opts.resume = &prior;
    StatusOr<EmptinessOutcome> retry = LazyEmptiness(spec, nullptr, retry_opts);
    ASSERT_TRUE(retry.ok()) << "n=" << n << ": " << retry.status().ToString();
    EXPECT_EQ(retry->empty, eager->empty) << "n=" << n;
  }
  EXPECT_GT(injected, 0) << "no checkpoint was ever reached";
}

// The front door: every injected checkpoint of Typecheck() ends in OK or
// kResourceExhausted. An OK run keeps the exact verdict (a budget trip may
// only drop the counterexample), so nothing is ever answered approximately.
TEST(FaultInjectionTest, FrontDoorSweepReturnsOkOrResourceExhausted) {
  PaperExample ex = MakeBookExample(/*with_summary=*/true);
  StatusOr<TypecheckResult> truth =
      Typecheck(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  const int points = SweepInjection("front-door", [&](Budget* b) {
    TypecheckOptions opts;
    opts.budget = b;
    StatusOr<TypecheckResult> r =
        Typecheck(*ex.transducer, *ex.din, *ex.dout, opts);
    if (r.ok()) {
      EXPECT_EQ(r->typechecks, truth->typechecks);
    }
    return r.status();
  });
  EXPECT_GT(points, 0) << "no injection ever reached the front door";
}

// The streaming pipeline (src/stream/): one budget governs schema compile,
// the event reader (per-event checks plus byte accounting), the validator
// and the transducer gates. Every mid-stream injection point must surface
// as a clean kResourceExhausted — never a crash, a hang, or a torn event.
TEST(FaultInjectionTest, StreamingPipelineSweepsCleanly) {
  const std::string doc =
      RenderDoc(StreamDocSpec{StreamDocSpec::Shape::kMixed, 3000});
  auto run = [&](Budget* b) -> Status {
    Alphabet alphabet;
    int root = alphabet.Intern("root");
    alphabet.Intern("section");
    alphabet.Intern("item");
    Dtd dtd(&alphabet, root);
    Status rule = dtd.SetRule("root", "(section|item)*");
    if (!rule.ok()) return rule;
    rule = dtd.SetRule("section", "(section|item)*");
    if (!rule.ok()) return rule;
    rule = dtd.SetRule("item", "%");
    if (!rule.ok()) return rule;
    Status compiled = dtd.Compile(b);
    if (!compiled.ok()) return compiled;

    Transducer t(&alphabet);
    t.SetInitial(t.AddState("m"));
    XTC_CHECK(t.SetRuleFromString("m", "root", "root(m)").ok());
    XTC_CHECK(t.SetRuleFromString("m", "section", "section(m)").ok());
    XTC_CHECK(t.SetRuleFromString("m", "item", "item").ok());

    XmlEventReader::Options reader_options;
    reader_options.budget = b;
    XmlEventReader reader(&alphabet, reader_options);
    StreamValidator::Options validator_options;
    validator_options.budget = b;
    StreamValidator validator(&dtd, validator_options);
    std::string out;
    StringSink sink(&out);
    StreamTransducer::Options transducer_options;
    transducer_options.budget = b;
    StatusOr<std::unique_ptr<StreamTransducer>> exec =
        StreamTransducer::Create(&t, &sink, transducer_options);
    if (!exec.ok()) return exec.status();

    std::size_t fed = 0;
    XmlEvent event;
    while (true) {
      StatusOr<XmlEventReader::ReadResult> r = reader.Next(&event);
      if (!r.ok()) return r.status();
      if (*r == XmlEventReader::ReadResult::kEvent) {
        Status s = validator.OnEvent(event);
        if (!s.ok()) return s;
        s = (*exec)->OnEvent(event);
        if (!s.ok()) return s;
        continue;
      }
      if (*r == XmlEventReader::ReadResult::kEndOfDocument) break;
      if (fed < doc.size()) {
        std::size_t n = std::min<std::size_t>(1024, doc.size() - fed);
        reader.Push(std::string_view(doc).substr(fed, n));
        fed += n;
      } else {
        reader.FinishInput();
      }
    }
    Status finish = (*exec)->Finish();
    if (!finish.ok()) return finish;
    XTC_CHECK(validator.AtEndOfDocument());
    return Status::Ok();
  };
  int points = SweepInjection("stream-pipeline", run);
  EXPECT_GT(points, 0) << "no stream checkpoint was ever reached";
}

}  // namespace
}  // namespace xtc
