#ifndef WF_PLATFORM_DATA_STORE_H_
#define WF_PLATFORM_DATA_STORE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "platform/entity.h"
#include "store/lsm.h"

namespace wf::platform {

// One node's entity store (§2: "The data store stores, modifies, and
// retrieves entities"). Thread-safe.
//
// The store is an adapter over store::LsmTree: entities are binary
// records (Entity::EncodeRecord) keyed by id in a memtable over immutable
// sorted segment files (DESIGN.md §13). By default the tree is ephemeral
// (pure in-memory); EnableSegments switches on the durable tiers, after
// which a full memtable flushes to a segment automatically and Flush() is
// the checkpoint operation, and EnableSegments on a directory is the one
// restore path. Reads resolve a key newest tier first, so callers never
// see the difference.
class DataStore {
 public:
  DataStore() = default;
  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  // Registers store/* metrics (memtable bytes, segments per tier, flush
  // and compaction counters/latency, read amplification) on `metrics`.
  void AttachMetrics(const obs::MetricsRegistry* metrics);

  // Switches to segment mode rooted at `dir` (files `<base>-<id>.wfseg`
  // plus `<base>.manifest`), loading any existing manifest and segment
  // runs. Corruption when a file fails its checksum. Must be called
  // before the store holds data.
  common::Status EnableSegments(const std::string& dir,
                                const std::string& base,
                                const store::LsmOptions& options = {},
                                common::StorageFaultInjector* injector =
                                    nullptr);
  bool segmented() const { return lsm_.segmented(); }

  // Flushes the memtable tier to a new segment and compacts; the
  // checkpoint operation in segment mode.
  common::Status Flush() { return lsm_.Flush(); }

  // Inserts a new entity; AlreadyExists if the id is taken.
  common::Status Put(const Entity& entity);
  // Put of the entity `id` as Entity::EncodeRecord encoded it, for a
  // caller that already holds the record (a node's ingest logs the same
  // bytes to its WAL).
  common::Status PutRecord(const std::string& id, std::string_view record);
  // Inserts or replaces. The error surface is the segment flush a full
  // memtable triggers — the entity itself is always accepted.
  common::Status Upsert(const Entity& entity);
  // The record `id` is stored as (Entity::EncodeRecord), undecoded: the
  // twin of PutRecord, for a caller that ships the record on (a node's
  // fetch service). NotFound when absent.
  common::Result<std::string> GetRecord(const std::string& id) const;
  // GetRecord, decoded. NotFound when absent.
  common::Result<Entity> Get(const std::string& id) const;
  bool Contains(const std::string& id) const;
  common::Status Delete(const std::string& id);

  // Applies `fn` to the stored entity under the store lock, so the
  // read-modify-write is atomic (DuplicateDetectionMiner::Run relies on
  // it).
  // NotFound when absent.
  common::Status Update(const std::string& id,
                        const std::function<void(Entity&)>& fn);

  // Applies `fn` to every entity live at the call, in sorted-id order,
  // one Get at a time: no lock is held while an entity decodes or `fn`
  // runs, so `fn` may call back into the store and writers are never
  // starved. An entity deleted before the sweep reaches it is skipped.
  void ForEach(const std::function<void(const Entity&)>& fn) const;

  size_t size() const;

  // All ids in sorted order. Reads only the in-RAM key indexes — no
  // entity record is materialized, whatever the store size.
  std::vector<std::string> Ids() const;

  // Writes the merged logical image (every live entity in its canonical
  // text, sorted by id) atomically under the checksummed `wfsnap store`
  // envelope: a pure function of the store's contents, so shards with
  // different segment layouts but equal data save identical bytes. The
  // goldens hash these bytes; nothing reads them back, because segments
  // are the store's one restore path (EnableSegments).
  common::Status Save(const std::string& path,
                      common::StorageFaultInjector* injector = nullptr) const;

  // Segment-mode introspection (0 / empty when ephemeral).
  size_t segment_count() const { return lsm_.segment_count(); }
  uint64_t memtable_bytes() const { return lsm_.memtable_bytes(); }
  uint64_t flushes() const { return lsm_.flushes(); }
  uint64_t compactions() const { return lsm_.compactions(); }

 private:
  store::LsmTree lsm_;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_DATA_STORE_H_
