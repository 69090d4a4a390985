#ifndef XTC_NTA_LAZY_H_
#define XTC_NTA_LAZY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/budget.h"
#include "src/base/status.h"
#include "src/nta/nta.h"
#include "src/tree/hashcons.h"

namespace xtc {

/// One factor of a product-emptiness query. Existential components
/// contribute one nondeterministically-chosen run; determinized components
/// are tracked as full state subsets of their Q (on-the-fly subset
/// construction), so `complement` — accept iff NO run of the component
/// accepts — is a polarity flip on the subset, with no materialized
/// completion or complementation.
struct LazyComponent {
  const Nta* nta = nullptr;
  bool determinize = false;
  bool complement = false;  ///< only meaningful with determinize
};

/// A conjunctive product query: is the intersection of the component
/// languages (complemented where flagged) empty? All components must share
/// one tree alphabet (equal num_symbols()). The spec only borrows the NTA
/// pointers; they must outlive the emptiness call.
class LazyProductSpec {
 public:
  /// Adds L(nta) as an existential factor.
  void AddNta(const Nta* nta) { components_.push_back({nta, false, false}); }
  /// Adds L(nta) (or its complement) as a determinized factor.
  void AddDeterminized(const Nta* nta, bool complement) {
    components_.push_back({nta, true, complement});
  }

  const std::vector<LazyComponent>& components() const { return components_; }
  int num_symbols() const {
    return components_.empty() ? 0 : components_.front().nta->num_symbols();
  }

 private:
  std::vector<LazyComponent> components_;
};

/// Exploration counters, reported by both engines so call sites and benches
/// can compare work done. For the eager engine, `configs` counts the
/// product states its last intersection reached, `h_configs` the pairs of
/// horizontal states its searches expanded and `steps` the edge pairs they
/// read.
struct LazyStats {
  std::uint64_t configs = 0;     ///< product configurations discovered
  std::uint64_t h_configs = 0;   ///< joint horizontal states discovered
  std::uint64_t det_states = 0;  ///< determinized subset states minted
  std::uint64_t steps = 0;       ///< horizontal successor expansions
  bool early_exit = false;       ///< stopped at the first accepting config
  bool resumed = false;          ///< warm-started from a LazySnapshot
};

/// The lazy engine's discovered determinized-state tables, exportable on a
/// *completed* exploration and re-importable to warm-start an equal query
/// (src/service/compile_cache stores these as incremental artifacts).
/// Snapshots are only ever taken from successful runs, so a resumed
/// exploration can trust every table; a run that failed mid-way (budget or
/// cap exhaustion) exports nothing and leaves any prior snapshot untouched.
///
/// Thread-ownership: like the SubsetInterner it is built from, a snapshot
/// is written by one thread; sharing read-only copies (e.g. via the compile
/// cache's shared_ptr entries) is safe once published.
struct LazySnapshot {
  /// One per determinized component, in spec order: the interned subsets of
  /// that component's Q, concatenated into `pool` with `offsets` fencing
  /// subset i at [offsets[i], offsets[i+1]).
  struct DetTable {
    std::vector<int> pool;
    std::vector<std::size_t> offsets = {0};
  };
  std::vector<DetTable> det_tables;
  bool complete = false;  ///< exploration ran to fixpoint (verdict is final)
  bool empty = false;     ///< the verdict, valid when complete

  std::size_t ApproxBytes() const;
};

struct LazyOptions {
  Budget* budget = nullptr;
  /// Cap on product configurations discovered before the engine gives up
  /// with kResourceExhausted (mirrors TypecheckOptions::max_configs).
  int max_configs = 1 << 22;
  /// Cap on joint horizontal states across all symbols.
  int max_h_configs = 1 << 22;
  /// Warm-start: pre-interns the snapshot's determinized-state tables (and
  /// short-circuits entirely when the snapshot is complete and no witness
  /// is requested). The snapshot must come from an equal spec.
  const LazySnapshot* resume = nullptr;
  /// When non-null and the run completes, receives the discovered tables.
  LazySnapshot* export_snapshot = nullptr;
};

/// The answer to an emptiness query. When a forest was supplied and the
/// product is non-empty, `witness` is a SharedForest id of a tree accepted
/// by every component (modulo complement); materialize it with
/// SharedForest::Materialize.
struct EmptinessOutcome {
  bool empty = false;
  int witness = -1;  ///< SharedForest id, -1 when empty or no forest given
  LazyStats stats;
};

/// On-the-fly emptiness: interleaves subset construction of determinized
/// components, the product with existential components, and bottom-up
/// reachability, discovering only reachable configurations and exiting the
/// moment an accepting one is minted. Budget-governed per successor
/// expansion; fails soft with kResourceExhausted on budget or cap
/// exhaustion, leaving no partial snapshot behind.
StatusOr<EmptinessOutcome> LazyEmptiness(const LazyProductSpec& spec,
                                         SharedForest* forest,
                                         const LazyOptions& options = {});

/// The eager bottom-up fold of the same query: materializes DeterminizeToDtac
/// (+ ComplementedDtac) per determinized component, reads existential
/// components in place, folds Intersect over all but the last factor, and
/// decides the last intersection by the reachability fixpoint over its
/// product states without building it, stopping at the first accepting
/// product state (a witness, when a forest is given, is built along the
/// way). Same verdicts. On a spec of existential components only it
/// determinizes nothing and is the faster engine (Theorem 20 over DTD(DFA)
/// outputs takes this path); with a determinized component it pays for the
/// full subset construction, and the lazy engine wins. `max_configs` caps
/// DeterminizeToDtac only; the fold itself is bounded by the Budget alone,
/// which it checkpoints per product state tried and per pair of horizontal
/// states expanded. Exports no snapshot.
StatusOr<EmptinessOutcome> EagerEmptiness(const LazyProductSpec& spec,
                                          SharedForest* forest,
                                          const LazyOptions& options = {});

}  // namespace xtc

#endif  // XTC_NTA_LAZY_H_
