#ifndef XTC_CORE_TRAC_H_
#define XTC_CORE_TRAC_H_

#include "src/base/status.h"
#include "src/core/typecheck.h"

namespace xtc {

/// Decides TC[T_trac, DTD(DFA)] — Lemma 14 / Theorem 15 — in time
/// O((|din| · |T|^{CK} · |dout|^{CK})^α) for transducers of copying width C
/// and deletion path width K. Implementation: instead of materializing the
/// paper's counterexample automaton B, its emptiness is decided lazily by a
/// least fixpoint over configurations
///
///     Sat(b, A_σ, [(p_1, ℓ_1, r_1), ..., (p_m, ℓ_m, r_m)])  :=
///       ∃ t ∈ L(d_in, b) such that for every i,
///       top(T^{p_i}(t)) drives the output DFA A_σ from ℓ_i to r_i,
///
/// which are exactly the "(a, (q_1, ℓ^b_1, r^b_1), ...)" states of B that
/// are reachable top-down; the violation checks at each rhs node u mirror
/// B's (a, q, check) states with complemented acceptance. Counterexamples
/// are reconstructed from fixpoint witnesses (Corollary 38).
///
/// Preconditions: selector-free transducer, DTD(DFA) schemas over one
/// shared alphabet. The engine is correct for any deterministic top–down
/// transducer; outside T_trac (unbounded deletion path width) the
/// configuration space is unbounded and the run ends with
/// kResourceExhausted at the configured limits.
///
/// Implementation note — the singleton memo. A configuration's status
/// flips from false to true only in the worklist loop, between two
/// evaluations, never during one. So within one evaluation's hedge search
/// the true singleton children Sat(c, A_σ, [(p, y, z)]) of a key (child
/// symbol c, copy state p, copy DFA state y) are a pure function of the
/// key: the engine derives that list once (interning the singletons and
/// registering the evaluated entry as a dependent of the false ones) and
/// reuses it for every product state and guessed start vector of the same
/// evaluation. It forgets the memo before the next evaluation, when
/// statuses may have changed. Exploration — configs, evaluations, product
/// states, worklist order and witnesses — is the same as re-deriving the
/// lists each time. Per-entry data (obligations, dependents, witnesses) live
/// in flat per-run pools, and the search's scratch is reused across
/// evaluations, so the fixpoint allocates only when a pool grows.
StatusOr<TypecheckResult> TypecheckTrac(const Transducer& t, const Dtd& din,
                                        const Dtd& dout,
                                        const TypecheckOptions& options = {});

}  // namespace xtc

#endif  // XTC_CORE_TRAC_H_
