#ifndef XTC_CORE_NFA_DTD_H_
#define XTC_CORE_NFA_DTD_H_

#include "src/base/state_set.h"
#include "src/base/status.h"
#include "src/core/typecheck.h"

namespace xtc {

/// Converts every rule of a DTD(NFA) to a DFA by subset construction.
/// `max_dfa_states` caps each rule's DFA — the exponential blowup here is
/// exactly the PSPACE price of DTD(NFA) schemas (Table 1, nd/bc column).
/// A non-null `budget` additionally checkpoints the subset construction.
///
/// When `needed` is non-null, only rules of symbols in the mask are
/// determinized; the rest keep their NFA form (same language). Callers must
/// prove the engine never steps an un-determinized rule's DFA — if one is
/// consulted anyway, Dtd::RuleDfa falls back to its own (ungoverned,
/// uncapped) cached subset construction, so the result stays sound. Shared
/// artifacts (the service compile cache) pass null: Dtd::Compile forces
/// every rule's DFA cache anyway — concurrent readers need them frozen —
/// so masking would only defer, not skip, the work there.
StatusOr<Dtd> DeterminizeDtd(const Dtd& dtd, int max_dfa_states,
                             Budget* budget = nullptr,
                             const StateSet* needed = nullptr);

/// The input symbols whose rule DFAs the Lemma 14 engine can consult when
/// checking against `din`: the closure of the start symbol under rule-NFA
/// edge labels (every evaluated input node is reachable from the root).
StateSet ConsultedInputSymbols(const Dtd& din);

/// The output symbols whose rule DFAs the engine can consult: labels
/// occurring in the transducer's templates plus the output start symbol.
StateSet ConsultedOutputSymbols(const Transducer& t, const Dtd& dout);

/// Complete typechecker for DTD(NFA) schemas: determinize the rules of both
/// schemas the engine can consult (ConsultedInputSymbols,
/// ConsultedOutputSymbols), then run the Lemma 14 engine. Worst-case
/// exponential in the schema sizes, matching the PSPACE-hardness of
/// TC[T_nd,bc, DTD(NFA)].
StatusOr<TypecheckResult> TypecheckViaDeterminization(
    const Transducer& t, const Dtd& din, const Dtd& dout,
    const TypecheckOptions& options = {}, int max_dfa_states = 1 << 16);

}  // namespace xtc

#endif  // XTC_CORE_NFA_DTD_H_
