#ifndef WF_BENCH_ALLOC_HOOK_H_
#define WF_BENCH_ALLOC_HOOK_H_

#include <cstdint>

namespace wf::bench {

// The counting global allocator that alloc_hook.cc defines. A binary that
// links that file has every operator new and delete replaced: blocks come
// from malloc and go back to free, and each is counted, its size read back
// with malloc_usable_size. tests/alloc_gate_test gates on these counts and
// bench_platform_scaling trends them. Meaningless under sanitizers, whose
// interceptors own operator new.
struct HeapStats {
  uint64_t allocations = 0;  // operator new calls so far
  uint64_t live_bytes = 0;   // allocated and not yet freed
  uint64_t peak_bytes = 0;   // most live bytes since the last ResetHeapPeak
};

HeapStats Heap();

// Restarts the high-water mark at the bytes live now.
void ResetHeapPeak();

}  // namespace wf::bench

#endif  // WF_BENCH_ALLOC_HOOK_H_
