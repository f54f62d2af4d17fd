#ifndef WF_COMMON_ARENA_H_
#define WF_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace wf::common {

// Bump allocator for the per-document analysis front half (DESIGN.md §15):
// everything a LinguisticAnalysis needs — the body copy its token views
// slice, interned lemmas, clitic forms — is carved out of a handful of
// geometrically growing blocks and released in O(1) when the artifact dies.
// Not thread-safe: one arena belongs to one analysis, which one thread owns
// (its entity's miner chain) for its whole life.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `size` bytes aligned to `align` (a power of two). Zero-size
  // allocations return a unique, valid, unusable pointer.
  void* Alloc(size_t size, size_t align = alignof(std::max_align_t));

  // Copies `s` into the arena and returns a view of the stable copy.
  std::string_view CopyString(std::string_view s);

  // Drops every allocation but keeps the largest block for reuse, so a
  // reused arena reaches steady-state with zero mallocs per document.
  void Reset();

  // Bytes handed out since construction/Reset (what callers asked for).
  size_t bytes_used() const { return bytes_used_; }
  // Bytes held in blocks (what the arena asked malloc for).
  size_t bytes_reserved() const { return bytes_reserved_; }
  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  // First block is one page; doubles until kMaxBlockBytes. Oversized
  // requests get a dedicated block of exactly the requested size.
  static constexpr size_t kMinBlockBytes = 4096;
  static constexpr size_t kMaxBlockBytes = 256 * 1024;

  Block* NewBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

// Deduplicating string store over an Arena: Intern returns a stable view
// that compares equal to the input, and two equal inputs share one copy.
// The hash set's nodes live on the normal heap (bounded by the number of
// distinct strings, typically tiny per document); the bytes live in the
// arena. Same thread-safety story as Arena: one owning thread.
class StringInterner {
 public:
  explicit StringInterner(Arena* arena) : arena_(arena) {}
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  // Stable view of `s` (arena-backed unless already interned).
  std::string_view Intern(std::string_view s);

  // Stable lowercase view of `s` — the hot-path replacement for
  // `ToLower(token.text)` temporaries: lowercases into a stack buffer and
  // interns, so repeated tokens ("the", "battery") cost one copy per
  // document, not one malloc per occurrence.
  std::string_view InternLower(std::string_view s);

  size_t size() const { return set_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  Arena* arena_;
  std::unordered_set<std::string_view, Hash, std::equal_to<>> set_;
};

}  // namespace wf::common

#endif  // WF_COMMON_ARENA_H_
