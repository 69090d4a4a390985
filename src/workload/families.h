#ifndef XTC_WORKLOAD_FAMILIES_H_
#define XTC_WORKLOAD_FAMILIES_H_

#include "src/core/paper_examples.h"

namespace xtc {

/// Scaling families driving the benchmark harness (EXPERIMENTS.md).
/// All families typecheck positively unless noted, so benches measure the
/// full (no-early-exit) cost.

/// Filtering with recursive deletion and no copying (the Example 10 shape):
/// a section hierarchy of `n` distinct levels; the transducer extracts all
/// titles by deleting interior nodes. C = 1, K = 1; |d_in| grows with n.
PaperExample FilterFamily(int n);

/// Copying width `c`, deletion path width `k` (k >= 1, via a chain of
/// non-recursively deleting states): exercises the C·K exponent of
/// Lemma 14.
PaperExample WidthFamily(int c, int k);

/// Relabeling transducer over DTDs with rule DFAs of ~n states each
/// (Theorem 20 / T_del-relab scaling).
PaperExample RelabFamily(int n);

/// Unbounded copying (width n) over DTD(RE+) schemas (Theorem 37 scaling):
/// the trac engine is exponential in n here, the Section 5 engine is not.
PaperExample RePlusCopyFamily(int n);

/// A failing DTD(RE+) chain of depth d >= 1 under the identity transducer:
/// the root and every x_i/y_i above level d have children x_{i+1}+ y_{i+1}+,
/// and d_out demands exactly x_d y_d below level d-1. t_min typechecks and
/// only t_vast, with (4^{d+1}-1)/3 nodes, is a counterexample; the smallest
/// one (one extra x_d) has 2^{d+1} nodes.
PaperExample RePlusVastChainFamily(int d);

/// The deleting copier of xtcbench's replus class, over DTD(RE+) schemas
/// (m, copies >= 1): d_in has r -> a and a -> b1+ ... bm+; the transducer
/// keeps r, deletes `a` and copies its children `copies` times, so d_out's
/// only rule, r -> (b1+ ... bm+)^copies, has about m·copies rule-DFA states
/// and accepts every translation. `failing` swaps the first and last blocks
/// of d_out's last copy, so every input fails; with m = 1 there is only one
/// block and the instance still typechecks.
PaperExample RePlusDeletingFamily(int m, int copies, bool failing);

/// Child-only XPath pattern of length n (Theorem 23 scaling).
PaperExample XPathChainFamily(int n);

/// DTD(NFA) schemas with n-state NFAs whose determinization is exponential
/// (the classic "n-th letter from the end" language): the PSPACE row of
/// Table 1.
PaperExample NfaSchemaFamily(int n);

/// A DTD(DFA) deleting relabeling (1 <= k <= 10) whose output schema counts
/// modulo the first k primes p_i: d_out has r -> x* and s_i -> (x^{p_i})*
/// (the s_i never occur in the output), and the transducer deletes a d
/// node with x* children. A subset construction over the #-eliminating
/// automaton of d_out tracks that node's child count modulo every p_i at
/// once, so it mints ∏ p_i subsets; complementing d_out's DTA before
/// #-elimination (Theorem 20) stays polynomial in k.
PaperExample CoprimeCounterFamily(int k);

/// A failing variant of FilterFamily (d_out misses one required title):
/// counterexample-generation workloads (Corollary 38).
PaperExample FailingFilterFamily(int n);

}  // namespace xtc

#endif  // XTC_WORKLOAD_FAMILIES_H_
