#ifndef XTC_SCHEMA_WITNESS_H_
#define XTC_SCHEMA_WITNESS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/budget.h"
#include "src/base/status.h"
#include "src/schema/dtd.h"
#include "src/tree/hashcons.h"
#include "src/tree/tree.h"

namespace xtc {

inline constexpr uint64_t kInfiniteCost = ~uint64_t{0};

/// Node count of a smallest tree in L(d, a) per symbol a (kInfiniteCost for
/// uninhabited symbols). Least fixpoint with weighted shortest words. The
/// governed overload checkpoints per fixpoint entry examined.
std::vector<uint64_t> MinimalTreeCosts(const Dtd& dtd);
StatusOr<std::vector<uint64_t>> MinimalTreeCosts(const Dtd& dtd,
                                                 Budget* budget);

/// A smallest tree of L(d, symbol); the symbol must be inhabited (the
/// ungoverned form aborts otherwise). The governed overload instead
/// returns kFailedPrecondition for uninhabited symbols and
/// kResourceExhausted when the budget trips mid-build; it checkpoints per
/// node of the tree under construction.
Node* MinimalValidTree(const Dtd& dtd, int symbol, TreeBuilder* builder);
StatusOr<Node*> MinimalValidTree(const Dtd& dtd, int symbol,
                                 TreeBuilder* builder, Budget* budget);
/// The governed form against `costs`, the result of MinimalTreeCosts(dtd),
/// so that a caller building many trees over one DTD runs that fixpoint
/// once.
StatusOr<Node*> MinimalValidTree(const Dtd& dtd, int symbol,
                                 const std::vector<uint64_t>& costs,
                                 TreeBuilder* builder, Budget* budget);

/// The Section 5 witness trees t_min and t_vast for a DTD(RE+), represented
/// hash-consed (t_vast unfolds exponentially). Ids are per symbol; -1 marks
/// uninhabited symbols (a recursive RE+ rule makes its symbol uninhabited:
/// every RE+ factor is mandatory, so recursion cannot bottom out).
struct RePlusWitnesses {
  SharedForest forest;
  std::vector<int> t_min;   // forest id per symbol, or -1
  std::vector<int> t_vast;  // forest id per symbol, or -1
};

/// Builds the witnesses; fails if the DTD is not a DTD(RE+).
StatusOr<RePlusWitnesses> BuildRePlusWitnesses(const Dtd& dtd);

}  // namespace xtc

#endif  // XTC_SCHEMA_WITNESS_H_
