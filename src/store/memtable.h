#ifndef WF_STORE_MEMTABLE_H_
#define WF_STORE_MEMTABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace wf::store {

// The mutable delta tier of the LSM tree: a sorted map from key to the
// newest value (or a tombstone marking deletion). Not thread-safe — the
// owning LsmTree serializes access under its own mutex. Byte accounting is
// approximate (key + value payload plus a fixed per-entry overhead) and
// only drives the flush ceiling, not any durability decision.
class Memtable {
 public:
  struct Entry {
    std::string value;
    bool tombstone = false;
  };
  // Transparent: a lookup takes the caller's view as it is.
  using Map = std::map<std::string, Entry, std::less<>>;

  // Upserts `key`. A tombstoned key written again comes back to life.
  void Set(std::string_view key, std::string_view value) {
    Write(key, value, /*tombstone=*/false);
  }

  // Records a deletion. The tombstone must survive until compaction can
  // prove no older segment still holds the key, so it occupies an entry.
  void Remove(std::string_view key) { Write(key, {}, /*tombstone=*/true); }

  // Null when the key has no memtable entry at all; a returned entry may
  // still be a tombstone (the caller must treat that as "deleted here",
  // shadowing any older segment).
  const Entry* Find(std::string_view key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  const Map& entries() const { return entries_; }
  size_t entry_count() const { return entries_.size(); }
  uint64_t approx_bytes() const { return approx_bytes_; }
  bool empty() const { return entries_.empty(); }

  void Clear() {
    entries_.clear();
    approx_bytes_ = 0;
  }

 private:
  static constexpr uint64_t kEntryOverhead = 64;

  // Looks `key` up as the view it is, so only a key not yet held is copied
  // into the map.
  void Write(std::string_view key, std::string_view value, bool tombstone) {
    auto it = entries_.lower_bound(key);
    if (it != entries_.end() && it->first == key) {
      approx_bytes_ -= it->second.value.size();
    } else {
      it = entries_.emplace_hint(it, key, Entry());
      approx_bytes_ += key.size() + kEntryOverhead;
    }
    it->second.value.assign(value.data(), value.size());
    it->second.tombstone = tombstone;
    approx_bytes_ += value.size();
  }

  Map entries_;
  uint64_t approx_bytes_ = 0;
};

}  // namespace wf::store

#endif  // WF_STORE_MEMTABLE_H_
