#ifndef XTC_CORE_RELAB_H_
#define XTC_CORE_RELAB_H_

#include "src/base/status.h"
#include "src/core/typecheck.h"
#include "src/nta/nta.h"

namespace xtc {

/// Lemma 19 applied to the #-marked totalization T' of a T_del-relab
/// transducer: returns an NTA(NFA) B with L(B) = T'(L(a_in)). Top-level
/// (deleting) states of rules are wrapped as #(q) and missing rules become
/// the single leaf #, so T' is non-deleting and total with at most one
/// state per template; `hash_symbol` is the id used for # (typically the
/// base alphabet size; the result runs over hash_symbol + 1 symbols).
/// A non-null `budget` checkpoints the per-state construction loop.
StatusOr<Nta> OutputLanguageNta(const Transducer& t, const Nta& ain,
                                int hash_symbol, Budget* budget = nullptr);

/// The #-eliminating automaton of Theorem 20: accepts a tree t over
/// Σ ∪ {#} iff t's root is not # and γ(t) ∈ L(aout), where γ splices out
/// #-labelled nodes. This holds for any NTA(NFA) `aout` over the base
/// alphabet — a #-node guesses the horizontal run segment its spliced-out
/// children drive — so the caller picks what to eliminate: the complement
/// of the output schema (B_out in the paper's order) or the schema itself,
/// complemented afterwards.
Nta HashEliminationNta(const Nta& aout, int hash_symbol);

/// Theorem 20: TC[T_del-relab, DTAc(DFA)] in PTIME, here applied to DTD
/// schemas: typechecks iff L(B_in) ∩ L(B_out) = ∅, where B_out accepts the
/// #-marked trees whose γ-image violates d_out. For a DTD(DFA) d_out this
/// follows the paper: d_out's DTA is completed with a sink and complemented
/// (linear for DFA rules), #-eliminated, and intersected with B_in as an
/// ordinary NTA by the eager bottom-up fold (EagerEmptiness, which stops at
/// the first accepting product state) — polynomial, with no config cap:
/// only `options.budget` bounds it. For a DTD(NFA)
/// d_out, completing is a subset construction per rule, so B_out is instead
/// the complement of HashEliminationNta(d_out), built by the lazy engine on
/// the reachable subsets only under `options.max_configs` (worst-case
/// exponential, the price the DTD(NFA) cells of Table 1 charge).
/// Counterexamples (in terms of the *input* tree) are recovered by a
/// bounded search when requested.
StatusOr<TypecheckResult> TypecheckDelRelab(const Transducer& t,
                                            const Dtd& din, const Dtd& dout,
                                            const TypecheckOptions& options = {});

/// The NTA-schema variant of Theorem 20: `ain` and `aout` are any NTA(NFA)s
/// over the base alphabet, and B_out is the complement of
/// HashEliminationNta(aout), built by the lazy engine on the reachable
/// subsets only. HashEliminationNta is nondeterministic even for a
/// deterministic `aout`, so this is worst-case exponential in |aout|; the
/// polynomial DTD(DFA) case goes through TypecheckDelRelab. No
/// counterexample is recovered; initial templates that do not produce a
/// single tree contribute no output (the Dtd entry point rejects them up
/// front).
StatusOr<TypecheckResult> TypecheckDelRelabNta(const Transducer& t,
                                               const Nta& ain,
                                               const Nta& aout,
                                               const TypecheckOptions& options = {});

}  // namespace xtc

#endif  // XTC_CORE_RELAB_H_
