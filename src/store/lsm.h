#ifndef WF_STORE_LSM_H_
#define WF_STORE_LSM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "store/memtable.h"
#include "store/segment.h"
#include "store/segment_stack.h"

namespace wf::store {

struct LsmOptions {
  // Approximate memtable size that triggers an automatic flush to a
  // segment. Only meaningful in segment mode; an ephemeral tree grows
  // unbounded (the pre-LSM behavior, kept for tests and ad-hoc tooling).
  uint64_t memtable_ceiling_bytes = 8ull << 20;
  // Minimum number of adjacent same-size-tier segments that compaction
  // merges into one.
  size_t compaction_fanout = 4;
};

// An LSM-style key/value tree: one mutable memtable (delta tier) over a
// stack of immutable sorted segment files (frozen tiers). The newest tier
// holding a key wins it; deletes are tombstones that shadow older segments
// until compaction proves no older record survives. The segment files,
// their manifest, and the commit protocol of flushes and compactions are
// a SegmentStack; this class adds the memtable, one point lookup for every
// read and write, and the merged sweeps and compaction, both MergeSorted
// (store/merge.h).
//
// Without OpenSegments the tree is ephemeral: a plain sorted in-memory
// map, no files ever touched.
//
// Thread-safe; every operation takes the one internal mutex, so callbacks
// passed to ForEach* must not reenter the tree.
class LsmTree {
 public:
  LsmTree() = default;
  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  // Registers gauges/counters/histograms under `prefix` (e.g. "store").
  // Call before concurrent use; null detaches.
  void AttachMetrics(const obs::MetricsRegistry* metrics,
                     const std::string& prefix);

  // Switches to segment mode rooted at `dir`: loads the manifest and its
  // segment runs if present (Corruption when any file fails its
  // checksum), deletes orphaned segment files a crash may have left
  // behind, and enables ceiling-triggered flushes. The memtable must be
  // empty. `injector` may be null and must outlive the tree.
  common::Status OpenSegments(const std::string& dir, const std::string& base,
                              const LsmOptions& options,
                              common::StorageFaultInjector* injector);
  bool segmented() const;

  // Upsert. In segment mode a full memtable flushes before the write is
  // acknowledged, so the error surface includes flush failures.
  common::Status Put(std::string_view key, std::string_view value);
  // Insert-only: AlreadyExists when `key` is live.
  common::Status Insert(std::string_view key, std::string_view value);
  // Tombstones `key`; NotFound when it is not live.
  common::Status Delete(std::string_view key);
  // Read-modify-write of a live key under the tree lock. `fn` edits the
  // serialized value in place; returning non-Ok abandons the write.
  common::Status Update(std::string_view key,
                        const std::function<common::Status(std::string*)>& fn);

  // NotFound when absent or tombstoned; IOError on a failed segment read.
  common::Result<std::string> Get(std::string_view key) const;
  bool Contains(std::string_view key) const;

  // Merged sorted sweeps over live records. ForEachKey never touches
  // values (segment key indexes are in RAM, so this is cheap at any
  // store size); ForEachSorted streams values one at a time.
  common::Status ForEachSorted(
      const std::function<common::Status(const std::string& key,
                                         const std::string& value)>& fn) const;
  void ForEachKey(const std::function<void(const std::string&)>& fn) const;

  // Live key count (tombstoned keys excluded).
  size_t size() const;

  // Flushes the memtable to a new segment and runs compaction. A no-op
  // when the memtable is empty. FailedPrecondition in ephemeral mode.
  common::Status Flush();

  uint64_t memtable_bytes() const;
  size_t segment_count() const;
  uint64_t flushes() const;
  uint64_t compactions() const;

 private:
  // Where a key resolves: its memtable entry, else the newest segment's;
  // either may be a tombstone, and neither is set when no tier holds it.
  struct Found {
    const Memtable::Entry* mem = nullptr;
    const SegmentReader* segment = nullptr;
    const SegmentReader::Entry* entry = nullptr;
    size_t tiers = 0;  // tiers examined, the memtable included
    bool live() const {
      if (mem != nullptr) return !mem->tombstone;
      return entry != nullptr && !entry->tombstone;
    }
  };

  struct MetricSet {
    obs::Gauge* memtable_bytes = nullptr;
    obs::Gauge* memtable_entries = nullptr;
    obs::Gauge* segments = nullptr;
    obs::Gauge* live_keys = nullptr;
    obs::Counter* flushes = nullptr;
    obs::Counter* gets = nullptr;
    obs::Counter* read_tiers = nullptr;
    // Bloom pre-checks on segment probes: hits = the filter ruled the
    // segment out (binary search skipped), misses = the probe fell
    // through to the key index (incl. ~0.8% false positives).
    obs::Counter* bloom_hits = nullptr;
    obs::Counter* bloom_misses = nullptr;
    obs::Histogram* flush_us = nullptr;
  };

  // Every point read and write resolves its key here: the memtable, then
  // the segments newest → oldest, each behind its counted Bloom filter.
  Found FindLocked(std::string_view key) const WF_REQUIRES(mu_);
  // The value `found` resolves `key` to; NotFound unless it is live.
  common::Result<std::string> ValueLocked(std::string_view key,
                                          const Found& found) const
      WF_REQUIRES(mu_);
  // Ends a write: flushes a full memtable and compacts in segment mode,
  // then refreshes the gauges.
  common::Status MaybeFlushLocked() WF_REQUIRES(mu_);
  common::Status FlushLocked() WF_REQUIRES(mu_);
  common::Status ForEachMergedLocked(
      bool need_values,
      const std::function<common::Status(const std::string& key,
                                         const std::string* value)>& fn) const
      WF_REQUIRES(mu_);
  void UpdateGaugesLocked() const WF_REQUIRES(mu_);

  // Configuration, set before concurrent use (AttachMetrics/OpenSegments).
  const obs::MetricsRegistry* metrics_ = nullptr;
  std::string metric_prefix_;
  MetricSet m_;
  LsmOptions options_;

  mutable common::Mutex mu_;
  Memtable mem_ WF_GUARDED_BY(mu_);
  // Open once in segment mode; empty in an ephemeral tree.
  SegmentStack<SegmentReader> segments_ WF_GUARDED_BY(mu_);
  size_t live_count_ WF_GUARDED_BY(mu_) = 0;
  uint64_t flushes_ WF_GUARDED_BY(mu_) = 0;
  // Size-tier gauges created on first use so only occupied tiers export.
  mutable std::map<size_t, obs::Gauge*> tier_gauges_ WF_GUARDED_BY(mu_);
};

}  // namespace wf::store

#endif  // WF_STORE_LSM_H_
