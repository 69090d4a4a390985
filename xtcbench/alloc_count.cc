#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace xbench {
namespace {

// The header sits immediately before the pointer handed out; 16 bytes keep
// the default new alignment.
struct Header {
  std::size_t size;
  std::size_t tracked;
};
static_assert(sizeof(Header) == 16);
constexpr std::size_t kDefaultAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
static_assert(kDefaultAlign <= sizeof(Header));

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
std::atomic<std::uint64_t> g_allocs{0};
thread_local int t_untracked = 0;
thread_local std::uint64_t* t_sink = nullptr;

void* Finish(void* base, std::size_t offset, std::size_t size) {
  char* user = static_cast<char*>(base) + offset;
  Header* h = reinterpret_cast<Header*>(user) - 1;
  h->size = size;
  h->tracked = t_untracked == 0 ? 1 : 0;
  if (h->tracked != 0) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t now =
        g_live.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed) +
        static_cast<std::int64_t>(size);
    if (now > g_peak.load(std::memory_order_relaxed)) {
      g_peak.store(now, std::memory_order_relaxed);
    }
    if (t_sink != nullptr) ++*t_sink;
  }
  return user;
}

void* Allocate(std::size_t size, std::size_t align) {
  if (align <= kDefaultAlign) {
    void* base = std::malloc(sizeof(Header) + size);
    return base == nullptr ? nullptr : Finish(base, sizeof(Header), size);
  }
  // Over-aligned: a whole alignment unit in front holds the header.
  std::size_t total = (align + size + align - 1) / align * align;
  void* base = std::aligned_alloc(align, total);
  return base == nullptr ? nullptr : Finish(base, align, size);
}

void Release(void* user, std::size_t align) {
  if (user == nullptr) return;
  Header* h = static_cast<Header*>(user) - 1;
  if (h->tracked != 0) {
    g_live.fetch_sub(static_cast<std::int64_t>(h->size),
                     std::memory_order_relaxed);
  }
  std::free(static_cast<char*>(user) -
            (align <= kDefaultAlign ? sizeof(Header) : align));
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::int64_t PeakBytes() { return g_peak.load(std::memory_order_relaxed); }
void ResetPeakBytes() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}
std::uint64_t AllocCount() {
  return g_allocs.load(std::memory_order_relaxed);
}

Untracked::Untracked() { ++t_untracked; }
Untracked::~Untracked() { --t_untracked; }

std::uint64_t* SetAllocSink(std::uint64_t* sink) {
  std::uint64_t* previous = t_sink;
  t_sink = sink;
  return previous;
}

}  // namespace xbench

using xbench::Allocate;
using xbench::AllocateOrThrow;
using xbench::Release;
using xbench::kDefaultAlign;

void* operator new(std::size_t n) { return AllocateOrThrow(n, kDefaultAlign); }
void* operator new[](std::size_t n) {
  return AllocateOrThrow(n, kDefaultAlign);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { Release(p, kDefaultAlign); }
void operator delete[](void* p) noexcept { Release(p, kDefaultAlign); }
void operator delete(void* p, std::size_t) noexcept {
  Release(p, kDefaultAlign);
}
void operator delete[](void* p, std::size_t) noexcept {
  Release(p, kDefaultAlign);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  Release(p, kDefaultAlign);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p, kDefaultAlign);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  Release(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  Release(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  Release(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  Release(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  Release(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a,
                       const std::nothrow_t&) noexcept {
  Release(p, static_cast<std::size_t>(a));
}
