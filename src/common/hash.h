#ifndef WF_COMMON_HASH_H_
#define WF_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace wf::common {

inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

// 64-bit FNV-1a. Stable across platforms/runs; used for data partitioning,
// so its value must never change (persisted shards depend on it). Passing
// the hash of a prefix as `h` continues it: the hash of parts written one
// after another equals the hash of their concatenation.
inline uint64_t Fnv1a64(std::string_view data, uint64_t h = kFnv1a64Basis) {
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Mixes two hashes (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

// Transparent hash for heterogeneous unordered-container lookup: maps keyed
// by std::string can be probed with a std::string_view without
// materializing a key. Pair with std::equal_to<>.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return static_cast<size_t>(Fnv1a64(s));
  }
};

}  // namespace wf::common

#endif  // WF_COMMON_HASH_H_
