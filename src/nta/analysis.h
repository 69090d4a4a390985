#ifndef XTC_NTA_ANALYSIS_H_
#define XTC_NTA_ANALYSIS_H_

#include <optional>
#include <vector>

#include "src/base/budget.h"
#include "src/base/state_set.h"
#include "src/base/status.h"
#include "src/nta/nta.h"
#include "src/tree/hashcons.h"

namespace xtc {

/// States q for which some tree has a run ending in q at its root — the set
/// R computed by the emptiness algorithm of Fig. A.1 (Proposition 4(2)).
/// The governed overloads below checkpoint the budget once per transition
/// examined in the fixpoint loops and fail with kResourceExhausted.
StateSet ReachableStates(const Nta& nta);
StatusOr<StateSet> ReachableStates(const Nta& nta, Budget* budget);

/// Emptiness of L(nta); PTIME (Proposition 4(2), Lemma 3 for DTAc).
bool IsEmptyLanguage(const Nta& nta);
StatusOr<bool> IsEmptyLanguage(const Nta& nta, Budget* budget);

/// Generates (a description of) a tree in L(nta) into `forest`
/// (Proposition 4(3)); nullopt when the language is empty. If
/// `per_state_ids` is non-null it receives, per state, the id of a witness
/// tree reaching that state (-1 if the state is unreachable).
std::optional<int> WitnessTree(const Nta& nta, SharedForest* forest,
                               std::vector<int>* per_state_ids = nullptr);
StatusOr<std::optional<int>> WitnessTree(const Nta& nta, SharedForest* forest,
                                         std::vector<int>* per_state_ids,
                                         Budget* budget);

/// Finiteness of L(nta); PTIME (Proposition 4(1)). Detects horizontal
/// pumping (an infinite horizontal language on a useful state) and vertical
/// pumping (a cycle in the occurs-in-derivation graph of useful states).
bool IsFiniteLanguage(const Nta& nta);
StatusOr<bool> IsFiniteLanguage(const Nta& nta, Budget* budget);

/// Complements a deterministic *complete* NTA by swapping final states.
/// The caller asserts the preconditions (EagerEmptiness uses this on the
/// DTAc of a complemented determinized factor).
Nta ComplementedDtac(const Nta& nta);

}  // namespace xtc

#endif  // XTC_NTA_ANALYSIS_H_
