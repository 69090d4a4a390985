// Heap accounting for the request benchmark: alloc_count.cc replaces the
// global operator new/delete of the benchmark binary with counting versions.
//
// Every allocation carries a small header recording its size and whether it
// is tracked. Allocations made inside an Untracked scope (the benchmark's own
// bookkeeping: input pools, latency samples, oracle state, spans) are never
// counted, so the live-byte figure is the program's heap, not the harness's.
#ifndef XTCBENCH_ALLOC_COUNT_H_
#define XTCBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace xbench {

/// Highest count of tracked bytes allocated at once (all threads) since the
/// last ResetPeakBytes().
std::int64_t PeakBytes();
/// Starts a new peak window at the current live size.
void ResetPeakBytes();
/// Tracked allocations performed so far (all threads).
std::uint64_t AllocCount();

/// While an Untracked object lives on a thread, that thread's allocations
/// are not counted. Nests.
class Untracked {
 public:
  Untracked();
  ~Untracked();
  Untracked(const Untracked&) = delete;
  Untracked& operator=(const Untracked&) = delete;
};

/// Tracked allocations on this thread also increment `*sink` while it is
/// set (the trace layer points it at the innermost open span). Returns the
/// previous sink.
std::uint64_t* SetAllocSink(std::uint64_t* sink);

}  // namespace xbench

#endif  // XTCBENCH_ALLOC_COUNT_H_
