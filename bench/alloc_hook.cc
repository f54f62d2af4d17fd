// The counting global allocator (alloc_hook.h). Counting is relaxed: one
// atomic increment per call is noise next to malloc itself, and the peak is
// exact whenever one thread allocates.
#include "bench/alloc_hook.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

// This TU replaces operator new with a malloc-backed allocator; GCC's
// inliner then sees malloc'd pointers reach the (replaced, free-backed)
// delete and flags a mismatch that is not one.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_live_bytes{0};
std::atomic<uint64_t> g_peak_bytes{0};

void RaisePeak(uint64_t live) {
  uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void* Counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const uint64_t bytes = malloc_usable_size(p);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  RaisePeak(g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes);
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* AlignedAlloc(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

namespace wf::bench {

HeapStats Heap() {
  return HeapStats{g_allocations.load(std::memory_order_relaxed),
                   g_live_bytes.load(std::memory_order_relaxed),
                   g_peak_bytes.load(std::memory_order_relaxed)};
}

void ResetHeapPeak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

}  // namespace wf::bench

void* operator new(std::size_t size) {
  return Counted(std::malloc(size ? size : 1));
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return Counted(AlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
