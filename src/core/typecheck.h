#ifndef XTC_CORE_TYPECHECK_H_
#define XTC_CORE_TYPECHECK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/base/arena.h"
#include "src/base/budget.h"
#include "src/base/status.h"
#include "src/nta/lazy.h"
#include "src/schema/dtd.h"
#include "src/td/transducer.h"
#include "src/td/widths.h"
#include "src/tree/tree.h"

namespace xtc {

/// The Table 1 cell an instance falls in, as Route() classifies it.
enum class Table1Cell : std::uint8_t {
  kNone,           ///< not routed: an engine was called directly
  kRePlus,         ///< DTD(RE+) on both sides, any transducer (Theorem 37)
  kDfaBoundedDpw,  ///< DTD(DFA), bounded deletion path width (Theorem 15)
  kNfa,            ///< a DTD(NFA) schema: Table 1's PSPACE row
  kIntractable,    ///< unbounded dpw, non-RE+ schemas (Theorems 18/28)
};

/// The engine Route() picks for a cell.
enum class RouteEngine : std::uint8_t {
  kNone,           ///< not routed: an engine was called directly
  kMinVast,        ///< Section 6's t_min/t_vast check (TypecheckMinVast)
  kTrac,           ///< the Lemma 14 engine (TypecheckTrac)
  kUnimplemented,  ///< no engine: Typecheck() answers kUnimplemented
};

struct TypecheckRoute {
  Table1Cell cell = Table1Cell::kNone;
  RouteEngine engine = RouteEngine::kNone;

  bool operator==(const TypecheckRoute&) const = default;
};

/// Instrumentation counters shared by the typechecking engines; benches
/// report these next to wall-clock times (they track the paper's size
/// bounds, e.g. Lemma 14's automaton size).
struct TypecheckStats {
  std::uint64_t configs = 0;          ///< distinct fixpoint configurations
  std::uint64_t evaluations = 0;      ///< configuration (re-)evaluations
  std::uint64_t product_states = 0;   ///< product states explored
  std::uint64_t nta_states = 0;       ///< states of constructed NTAs
  std::uint64_t nta_size = 0;         ///< total size of constructed NTAs
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  std::uint64_t pruned_configs = 0;

  // Resource-governor telemetry (zero when the run was ungoverned).
  std::uint64_t budget_checkpoints = 0;  ///< checkpoints passed
  std::uint64_t budget_bytes = 0;        ///< arena bytes charged
  double elapsed_ms = 0;                 ///< wall-clock of the governed run
  ExhaustionCause exhaustion = ExhaustionCause::kNone;  ///< why it stopped

  /// The Table 1 cell and engine that produced the answer; Typecheck()
  /// stamps it from Route(), direct engine calls leave it kNone.
  TypecheckRoute route;

  /// Total states of the rule DFAs the routed engine ran on each side:
  /// Lemma 14's |d_in| and |d_out| (Dtd::RuleDfaStates). Typecheck()
  /// stamps them next to `route`; for DTD(NFA) schemas determinized inside
  /// the call, TypecheckViaDeterminization stamps the DTDs it built. Zero
  /// on a side the engine runs no rule DFA on (min/vast's d_in) and on
  /// direct engine calls.
  int din_rule_states = 0;
  int dout_rule_states = 0;
};

/// Outcome of a typechecking run (Definition 9). When the instance does not
/// typecheck, `counterexample` is a tree t in L(d_in) with T(t) not in
/// L(d_out) (Corollary 38), owned by `arena`.
struct TypecheckResult {
  bool typechecks = false;
  std::shared_ptr<Arena> arena;
  Node* counterexample = nullptr;
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  bool approximate = false;
  TypecheckStats stats;
};

/// Resource limits for the engines; decision procedures fail softly with
/// kResourceExhausted instead of thrashing (the hard instances of Sections
/// 3.2 and 4 are exponential by design).
///
/// `budget`, when non-null, governs the run: every super-linear loop
/// checkpoints it and the engines unwind with kResourceExhausted as soon as
/// its deadline/step/byte limit trips. The budget is borrowed, not owned,
/// and must outlive the Typecheck call (not the result).
struct TypecheckOptions {
  std::uint64_t max_configs = 1u << 22;
  std::uint64_t max_product_states_per_eval = 1u << 22;
  bool want_counterexample = true;
  Budget* budget = nullptr;
  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  bool approximate_fallback = false;

  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  int emptiness_threads = 1;

  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  bool antichain = true;

  /// Nothing in src/ reads this; kept until xtcbench/drive.cc drops it.
  int dense_threshold = 0;

  // --- Pre-compiled artifacts (the service compile cache) ---
  //
  // All three are borrowed and must outlive the call. They let repeated
  // requests against cached schemas/transducers skip the per-call analysis
  // and determinization work; correctness is the caller's contract — the
  // artifacts must genuinely describe the `t`/`din`/`dout` being passed.

  /// Width analysis of the (selector-free) transducer; when null the
  /// dispatch runs AnalyzeWidths itself.
  const WidthAnalysis* widths = nullptr;

  /// DTD(DFA) determinizations of `din`/`dout`, used instead of re-running
  /// the subset construction when a schema is not already DTD(DFA). Must
  /// share the schema's Alphabet object.
  const Dtd* din_determinized = nullptr;
  const Dtd* dout_determinized = nullptr;

  /// Resumable lazy-engine state (the service compile cache). `lazy_resume`
  /// warm-starts the lazy emptiness run with previously discovered tables;
  /// it must come from an identical request (same schemas and transducer).
  /// When `lazy_export` is non-null and the emptiness run completes cleanly,
  /// it receives the discovered tables for caching (just the verdict when
  /// the product has no determinized factor); a failed or skipped run
  /// leaves it untouched.
  const LazySnapshot* lazy_resume = nullptr;
  LazySnapshot* lazy_export = nullptr;
};

/// Checks a claimed counterexample against the definition: t must satisfy
/// d_in and T(t) must violate d_out. Used by tests and by the engines'
/// self-verification.
bool VerifyCounterexample(const Transducer& t, const Dtd& din, const Dtd& dout,
                          const Node* tree);

/// The Table 1 dispatch, decided without running anything. `t` must be
/// selector-free (Typecheck() compiles selectors away first). In order:
///  - DTD(RE+) on both sides: min/vast, for every transducer (Theorem 37,
///    Corollary 38);
///  - DTD(DFA) with bounded deletion path width: trac (Theorem 15);
///  - a DTD(NFA) schema: determinize, then route again — the determinized
///    schemas are DTD(DFA) but not DTD(RE+), so this is trac when the
///    deletion path width is bounded (the PSPACE price of Table 1);
///  - anything else is provably intractable (Theorems 18/28) and gets no
///    engine.
/// The width analysis comes from `options.widths` when set; otherwise it is
/// computed here, and only when the RE+ cell does not apply.
TypecheckRoute Route(const Transducer& t, const Dtd& din, const Dtd& dout,
                     const TypecheckOptions& options = {});

/// Front door: compiles selectors away (Theorems 23/29), runs the engine
/// Route() picks and stamps the route into the result's stats. Instances
/// that route to no engine fail with kUnimplemented (use
/// TypecheckBruteForce for bounded checking).
StatusOr<TypecheckResult> Typecheck(const Transducer& t, const Dtd& din,
                                    const Dtd& dout,
                                    const TypecheckOptions& options = {});

}  // namespace xtc

#endif  // XTC_CORE_TYPECHECK_H_
