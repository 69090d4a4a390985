// Allocation regression test for the Lemma 14 engine. The global operator
// new of this binary counts every allocation, so it lives in its own test
// binary: the replacement must not leak into other tests.
//
// Budgets are per warm TypecheckTrac call (the schemas' lazily built rule
// DFAs exist already). The fixpoint keeps its per-entry data in flat pools
// and reuses its search scratch, so what remains is pool growth, per-run
// setup (reachable pairs, output-DFA reachability) and, for failing
// instances, counterexample construction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/trac.h"
#include "src/workload/families.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAllocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocate(n); }
void* operator new[](std::size_t n) { return CountedAllocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xtc {
namespace {

// Allocations made by one warm TypecheckTrac call on `ex`.
std::uint64_t WarmAllocations(const PaperExample& ex) {
  TypecheckOptions opts;
  StatusOr<TypecheckResult> warm =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  const std::uint64_t before = g_allocations.load();
  {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  // Every call allocates its result arena: zero means the counting
  // operator new is not the one linked in, and the ceilings below would
  // hold vacuously.
  EXPECT_GT(allocations, 0u);
  return allocations;
}

// 18,004 allocations per call before the fixpoint's per-entry vectors and
// per-evaluation scratch moved into pools; 211 once the schemas hand out
// minimal rule DFAs (the fixpoint explores 37 configs instead of 100).
TEST(TracAllocTest, WidthFamilyWarmCall) {
  EXPECT_LE(WarmAllocations(WidthFamily(7, 7)), 240u);
}

// 1,664 allocations per call before; the failing run also builds a
// counterexample. 326 once MinimalTreeCosts reuses its Dijkstra buffers
// across the fixpoint and the rule DFAs are minimal.
TEST(TracAllocTest, FailingFilterFamilyWarmCall) {
  EXPECT_LE(WarmAllocations(FailingFilterFamily(13)), 360u);
}

}  // namespace
}  // namespace xtc
