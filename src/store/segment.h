#ifndef WF_STORE_SEGMENT_H_
#define WF_STORE_SEGMENT_H_

#include <cstdint>
#include <fstream>  // std::ifstream reads only; writes go through DurableFile
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "store/bloom.h"

namespace wf::common {
class StorageFaultInjector;
}  // namespace wf::common

namespace wf::store {

// An immutable sorted segment run: the frozen tier of the LSM tree.
//
// On disk a segment is a `wfsnap segment 1` envelope (checksummed,
// written atomically via WriteSnapshotFile) whose payload is:
//
//   wfseg 1 <record-count>\n
//   r <keylen> <vallen> <tombstone>\n<key><value>\n     (record-count times)
//
// Records are strictly sorted by key with no duplicates — the writer
// refuses anything else, so every reader can binary-search. Tombstones are
// real records with an empty value: a deletion must stay visible until
// compaction can prove no older segment still holds the key.
//
// Determinism contract (DESIGN.md §13): the payload is a pure function of
// the logical record sequence — same records, same bytes — so two shards
// that flushed the same logical content produce byte-identical segments.

struct SegmentRecord {
  std::string_view key;
  std::string_view value;
  bool tombstone = false;
};

// Writes `records` (already sorted by key, unique) as a segment file,
// streaming the keys and values from the views in `records` without
// joining them into one payload. Returns the key Bloom filter through
// `bloom_out` when non-null (bit-identical to what SegmentReader::Open
// rebuilds). InvalidArgument on unsorted or duplicate keys.
common::Status WriteSegmentFile(const std::string& path,
                                const std::vector<SegmentRecord>& records,
                                common::StorageFaultInjector* injector,
                                BloomFilter* bloom_out = nullptr);

// Read handle over one segment file. Open() verifies the whole envelope
// checksum once and keeps only the key index (key, offset, length,
// tombstone) in memory; values are read lazily by offset so a large
// segment does not occupy RAM. Not thread-safe: the owning LsmTree
// serializes reads under its own mutex.
class SegmentReader {
 public:
  struct Entry {
    std::string key;
    uint64_t value_offset = 0;  // absolute file offset of the value bytes
    uint32_t value_len = 0;
    bool tombstone = false;
  };

  static common::Result<std::unique_ptr<SegmentReader>> Open(
      const std::string& path);

  // Public only so Open can make_unique; use Open().
  SegmentReader() = default;
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  // Sorted by key; one entry per record including tombstones.
  const std::vector<Entry>& entries() const { return entries_; }
  // Bloom pre-check for Find(): false means no record (incl. tombstones)
  // for `key` exists in this segment.
  bool MayContain(std::string_view key) const {
    return bloom_.MayContain(key);
  }
  const BloomFilter& bloom() const { return bloom_; }
  // Null when the segment has no record for `key` (a tombstone entry is
  // still returned — absence and deletion are different answers).
  const Entry* Find(std::string_view key) const;

  common::Result<std::string> ReadValue(const Entry& entry) const;

  const std::string& path() const { return path_; }
  uint64_t file_bytes() const { return file_bytes_; }
  size_t record_count() const { return entries_.size(); }

 private:
  std::string path_;
  uint64_t file_bytes_ = 0;
  std::vector<Entry> entries_;
  BloomFilter bloom_;
  // One stream reused across lazy value reads; opened on first use.
  mutable std::ifstream in_;
};

}  // namespace wf::store

#endif  // WF_STORE_SEGMENT_H_
