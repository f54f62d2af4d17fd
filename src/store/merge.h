#ifndef WF_STORE_MERGE_H_
#define WF_STORE_MERGE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wf::store {

inline constexpr size_t kAbsent = SIZE_MAX;

// The storage engine's one k-way merge: index and store compaction and the
// store's merged sweeps all run on it. Merges sorted, duplicate-free
// sequences listed oldest first: sequence t has sizes[t] keys, key_of(t, i)
// is its i-th. Calls visit(key, at) once per distinct key, ascending, where
// at[t] is the key's index in sequence t, or kAbsent when t lacks it. The
// first error `visit` returns ends the merge and is returned.
inline common::Status MergeSorted(
    std::span<const size_t> sizes,
    const std::function<std::string_view(size_t t, size_t i)>& key_of,
    const std::function<common::Status(std::string_view key,
                                       std::span<const size_t> at)>& visit) {
  std::vector<size_t> cursor(sizes.size(), 0);
  std::vector<size_t> at(sizes.size(), kAbsent);
  for (;;) {
    std::optional<std::string_view> next;
    for (size_t t = 0; t < sizes.size(); ++t) {
      if (cursor[t] == sizes[t]) continue;
      const std::string_view key = key_of(t, cursor[t]);
      if (!next.has_value() || key < *next) next = key;
    }
    if (!next.has_value()) return common::Status::Ok();
    for (size_t t = 0; t < sizes.size(); ++t) {
      const bool holds = cursor[t] < sizes[t] && key_of(t, cursor[t]) == *next;
      at[t] = holds ? cursor[t]++ : kAbsent;
    }
    WF_RETURN_IF_ERROR(visit(*next, at));
  }
}

// The sequence whose record of a visited key wins: the newest holding it.
inline size_t Newest(std::span<const size_t> at) {
  size_t t = at.size() - 1;
  while (at[t] == kAbsent) --t;
  return t;
}

}  // namespace wf::store

#endif  // WF_STORE_MERGE_H_
