#ifndef XTC_NTA_COMPLETION_H_
#define XTC_NTA_COMPLETION_H_

#include "src/nta/nta.h"

namespace xtc {

// Eager DTAc tooling, kept as test oracles: the Theorem 20 engine
// complements its output automaton on the fly (src/core/relab.h) instead
// of completing it. This translation unit is off the request path, and the
// tier-1 `xtcd_symbols` test keeps it out of xtcd.

/// Bottom-up determinism: delta(q, a) and delta(q', a) disjoint for q != q'.
bool IsBottomUpDeterministic(const Nta& nta);

/// Completeness: for every a, the union over q of delta(q, a) is Q*.
/// Exponential in the worst case (universality check); intended for
/// moderate automata and tests.
bool IsComplete(const Nta& nta);

/// Adds a sink state to a bottom-up deterministic NTA so that it becomes
/// complete (a DTAc if the input was a DTA). The caller asserts determinism.
/// The sink's horizontal languages are subset-construction complements, so
/// this is exponential in the content-model NFAs.
Nta CompletedDeterministic(const Nta& nta);

}  // namespace xtc

#endif  // XTC_NTA_COMPLETION_H_
