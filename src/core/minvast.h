#ifndef XTC_CORE_MINVAST_H_
#define XTC_CORE_MINVAST_H_

#include <cstdint>

#include "src/base/status.h"
#include "src/core/typecheck.h"

namespace xtc {

/// Largest counterexample, in tree nodes, that TypecheckMinVast
/// materializes. A witness still larger after shrinking makes the run fail
/// with kResourceExhausted rather than return a verdict without one.
inline constexpr std::uint64_t kMaxCounterexampleNodes = 1 << 20;

/// The alternative Section 6 algorithm for TC[T_d,c, DTD(RE+)]: an instance
/// typechecks iff neither t_min nor t_vast (Section 5's witness trees for
/// the input DTD) is a counterexample. Both witnesses are kept hash-consed
/// (t_vast's unfolding doubles below every +, so it is exponential as a
/// tree but polynomial as a DAG) and T(t)'s conformance to d_out is checked
/// symbolically with per-(shared node, state) memoization, keeping the
/// whole check polynomial. Each effect table (the map Q_sigma -> Q_sigma
/// a translated node's top-level string induces on an output rule's
/// complete DFA) is composed once per child: O(|rhs|·k) memo lookups plus
/// O(|Q_sigma|·|rhs|·k) array reads for k children. A failing t_vast is
/// shrunk on the DAG before it is materialized (subtrees swapped for t_min,
/// spare + copies cut, each step re-verified), so counterexamples stay near
/// Lemma 14's size.
/// Typecheck() routes every DTD(RE+) instance here.
StatusOr<TypecheckResult> TypecheckMinVast(const Transducer& t, const Dtd& din,
                                           const Dtd& dout,
                                           const TypecheckOptions& options = {});

}  // namespace xtc

#endif  // XTC_CORE_MINVAST_H_
