#ifndef XTC_NTA_PRODUCT_H_
#define XTC_NTA_PRODUCT_H_

#include "src/base/budget.h"
#include "src/base/status.h"
#include "src/nta/nta.h"

namespace xtc {

/// Product automaton with L = L(a) ∩ L(b). States are pairs (encoded as
/// qa * b.num_states() + qb); horizontal languages are products of the
/// operand horizontals with paired child states. Used by Theorem 20
/// (emptiness of B_in ∩ B_out). The governed overload checkpoints before it
/// allocates the |a|·|b| states, once per state of `a` while marking final
/// states, and once per horizontal product and per product row built, so
/// at most one row's |ea|·|eb| edges (or one horizontal product's states)
/// are built between checkpoints. A product of more than INT_MAX states
/// fails with kResourceExhausted.
Nta Intersect(const Nta& a, const Nta& b);
StatusOr<Nta> Intersect(const Nta& a, const Nta& b, Budget* budget);

/// Disjoint-union automaton with L = L(a) ∪ L(b): runs stay entirely within
/// one operand's state space.
Nta DisjointUnion(const Nta& a, const Nta& b);

}  // namespace xtc

#endif  // XTC_NTA_PRODUCT_H_
