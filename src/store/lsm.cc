#include "store/lsm.h"

#include <deque>
#include <span>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/timer.h"
#include "store/merge.h"

namespace wf::store {

namespace {

// Compaction's merge: the newest input holding a key wins it. Tombstones
// are dropped only when the range includes the oldest segment: otherwise a
// yet-older segment may still hold the key, and dropping the tombstone
// would resurrect it.
common::Status WriteMergedSegment(
    std::span<const std::unique_ptr<SegmentReader>> inputs,
    bool includes_oldest, const std::string& path,
    common::StorageFaultInjector* injector) {
  std::vector<size_t> sizes;
  sizes.reserve(inputs.size());
  for (const auto& input : inputs) sizes.push_back(input->entries().size());
  std::deque<std::string> values;  // stable storage the records view
  std::vector<SegmentRecord> records;
  WF_RETURN_IF_ERROR(MergeSorted(
      sizes,
      [&inputs](size_t t, size_t i) -> std::string_view {
        return inputs[t]->entries()[i].key;
      },
      [&](std::string_view, std::span<const size_t> at) -> common::Status {
        const size_t t = Newest(at);
        const SegmentReader::Entry& entry = inputs[t]->entries()[at[t]];
        if (entry.tombstone) {
          if (!includes_oldest) records.push_back({entry.key, {}, true});
          return common::Status::Ok();
        }
        WF_ASSIGN_OR_RETURN(std::string value, inputs[t]->ReadValue(entry));
        values.push_back(std::move(value));
        records.push_back({entry.key, values.back(), false});
        return common::Status::Ok();
      }));
  return WriteSegmentFile(path, records, injector);
}

}  // namespace

void LsmTree::AttachMetrics(const obs::MetricsRegistry* metrics,
                            const std::string& prefix) {
  common::MutexLock lock(mu_);
  segments_.AttachMetrics(metrics, prefix);
  metrics_ = metrics;
  metric_prefix_ = prefix;
  m_ = MetricSet{};
  if (metrics_ == nullptr) return;
  const std::string& p = metric_prefix_;
  m_.memtable_bytes = metrics_->GetGauge(p + "/memtable_bytes");
  m_.memtable_entries = metrics_->GetGauge(p + "/memtable_entries");
  m_.segments = metrics_->GetGauge(p + "/segments");
  m_.live_keys = metrics_->GetGauge(p + "/live_keys");
  m_.flushes = metrics_->GetCounter(p + "/flushes_total");
  m_.gets = metrics_->GetCounter(p + "/gets_total");
  m_.read_tiers = metrics_->GetCounter(p + "/read_tiers_total");
  m_.bloom_hits = metrics_->GetCounter(p + "/bloom_hits_total");
  m_.bloom_misses = metrics_->GetCounter(p + "/bloom_misses_total");
  m_.flush_us = metrics_->GetHistogram(
      p + "/flush_us", obs::DefaultLatencyBoundsUs(), /*timing=*/true);
}

common::Status LsmTree::OpenSegments(const std::string& dir,
                                     const std::string& base,
                                     const LsmOptions& options,
                                     common::StorageFaultInjector* injector) {
  common::MutexLock lock(mu_);
  if (!mem_.empty()) {
    return common::Status::FailedPrecondition(
        "memtable must be empty when opening segments");
  }
  WF_RETURN_IF_ERROR(
      segments_.Open(dir, base, options.compaction_fanout, injector));
  options_ = options;
  size_t live = 0;
  WF_CHECK_OK(ForEachMergedLocked(
      /*need_values=*/false, [&live](const std::string&, const std::string*) {
        ++live;
        return common::Status::Ok();
      }));
  live_count_ = live;
  UpdateGaugesLocked();
  return common::Status::Ok();
}

bool LsmTree::segmented() const {
  common::MutexLock lock(mu_);
  return segments_.is_open();
}

common::Status LsmTree::Put(std::string_view key, std::string_view value) {
  common::MutexLock lock(mu_);
  if (!FindLocked(key).live()) ++live_count_;
  mem_.Set(key, value);
  return MaybeFlushLocked();
}

common::Status LsmTree::Insert(std::string_view key, std::string_view value) {
  common::MutexLock lock(mu_);
  if (FindLocked(key).live()) {
    return common::Status::AlreadyExists("key exists: " + std::string(key));
  }
  mem_.Set(key, value);
  ++live_count_;
  return MaybeFlushLocked();
}

common::Status LsmTree::Delete(std::string_view key) {
  common::MutexLock lock(mu_);
  if (!FindLocked(key).live()) {
    return common::Status::NotFound("no such key: " + std::string(key));
  }
  mem_.Remove(key);
  --live_count_;
  return MaybeFlushLocked();
}

common::Status LsmTree::Update(
    std::string_view key,
    const std::function<common::Status(std::string*)>& fn) {
  common::MutexLock lock(mu_);
  WF_ASSIGN_OR_RETURN(std::string value, ValueLocked(key, FindLocked(key)));
  WF_RETURN_IF_ERROR(fn(&value));
  mem_.Set(key, value);
  return MaybeFlushLocked();
}

common::Result<std::string> LsmTree::Get(std::string_view key) const {
  common::MutexLock lock(mu_);
  const Found found = FindLocked(key);
  if (m_.gets != nullptr) m_.gets->Add();
  if (m_.read_tiers != nullptr) m_.read_tiers->Add(found.tiers);
  return ValueLocked(key, found);
}

bool LsmTree::Contains(std::string_view key) const {
  common::MutexLock lock(mu_);
  return FindLocked(key).live();
}

common::Status LsmTree::ForEachSorted(
    const std::function<common::Status(const std::string&,
                                       const std::string&)>& fn) const {
  common::MutexLock lock(mu_);
  return ForEachMergedLocked(
      /*need_values=*/true,
      [&fn](const std::string& key, const std::string* value) {
        return fn(key, *value);
      });
}

void LsmTree::ForEachKey(
    const std::function<void(const std::string&)>& fn) const {
  common::MutexLock lock(mu_);
  // Key-only sweeps never read values, so they cannot fail.
  WF_CHECK_OK(ForEachMergedLocked(
      /*need_values=*/false,
      [&fn](const std::string& key, const std::string*) {
        fn(key);
        return common::Status::Ok();
      }));
}

size_t LsmTree::size() const {
  common::MutexLock lock(mu_);
  return live_count_;
}

common::Status LsmTree::Flush() {
  common::MutexLock lock(mu_);
  if (!segments_.is_open()) {
    return common::Status::FailedPrecondition(
        "ephemeral tree cannot flush (OpenSegments first)");
  }
  WF_RETURN_IF_ERROR(FlushLocked());
  common::Status compacted = segments_.Compact(WriteMergedSegment);
  UpdateGaugesLocked();
  return compacted;
}

uint64_t LsmTree::memtable_bytes() const {
  common::MutexLock lock(mu_);
  return mem_.approx_bytes();
}

size_t LsmTree::segment_count() const {
  common::MutexLock lock(mu_);
  return segments_.runs().size();
}

uint64_t LsmTree::flushes() const {
  common::MutexLock lock(mu_);
  return flushes_;
}

uint64_t LsmTree::compactions() const {
  common::MutexLock lock(mu_);
  return segments_.compactions();
}

// --- Locked internals -------------------------------------------------------

LsmTree::Found LsmTree::FindLocked(std::string_view key) const {
  Found found;
  found.tiers = 1;
  found.mem = mem_.Find(key);
  if (found.mem != nullptr) return found;
  const std::vector<std::unique_ptr<SegmentReader>>& runs = segments_.runs();
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    ++found.tiers;
    if (!(*it)->MayContain(key)) {
      if (m_.bloom_hits != nullptr) m_.bloom_hits->Add();
      continue;
    }
    if (m_.bloom_misses != nullptr) m_.bloom_misses->Add();
    found.entry = (*it)->Find(key);
    if (found.entry != nullptr) {
      found.segment = it->get();
      return found;
    }
  }
  return found;
}

common::Result<std::string> LsmTree::ValueLocked(std::string_view key,
                                                 const Found& found) const {
  if (!found.live()) {
    return common::Status::NotFound("no such key: " + std::string(key));
  }
  if (found.mem != nullptr) return found.mem->value;
  return found.segment->ReadValue(*found.entry);
}

common::Status LsmTree::MaybeFlushLocked() {
  common::Status status;
  if (segments_.is_open() &&
      mem_.approx_bytes() >= options_.memtable_ceiling_bytes) {
    status = FlushLocked();
    if (status.ok()) status = segments_.Compact(WriteMergedSegment);
  }
  UpdateGaugesLocked();
  return status;
}

common::Status LsmTree::FlushLocked() {
  if (mem_.empty()) return common::Status::Ok();
  obs::ScopedTimer timer(m_.flush_us);
  std::vector<SegmentRecord> records;
  records.reserve(mem_.entry_count());
  for (const auto& [key, entry] : mem_.entries()) {
    records.push_back({key, entry.value, entry.tombstone});
  }
  BloomFilter bloom;
  // Fail before the manifest swap commits the segment and the acked
  // records stay in the memtable (and in the WAL above us): nothing is
  // lost.
  WF_RETURN_IF_ERROR(segments_.Append(
      [&records, &bloom](const std::string& path,
                         common::StorageFaultInjector* injector) {
        return WriteSegmentFile(path, records, injector, &bloom);
      }));
  // The filter built at write time and the one rebuilt at open must agree,
  // or reads through the reopened reader could skip a live key.
  WF_CHECK(bloom == segments_.runs().back()->bloom())
      << "bloom mismatch after reopen";
  mem_.Clear();
  ++flushes_;
  if (m_.flushes != nullptr) m_.flushes->Add();
  return common::Status::Ok();
}

common::Status LsmTree::ForEachMergedLocked(
    bool need_values,
    const std::function<common::Status(const std::string& key,
                                       const std::string* value)>& fn) const {
  // The segments oldest → newest, then the memtable: the last sequence
  // holding a key supplies its record.
  const std::vector<std::unique_ptr<SegmentReader>>& segments =
      segments_.runs();
  std::vector<const Memtable::Map::value_type*> mem;
  mem.reserve(mem_.entry_count());
  for (const auto& entry : mem_.entries()) mem.push_back(&entry);
  std::vector<size_t> sizes;
  sizes.reserve(segments.size() + 1);
  for (const auto& segment : segments) {
    sizes.push_back(segment->entries().size());
  }
  sizes.push_back(mem.size());
  const size_t mem_seq = segments.size();
  return MergeSorted(
      sizes,
      [&](size_t t, size_t i) -> std::string_view {
        return t == mem_seq ? mem[i]->first : segments[t]->entries()[i].key;
      },
      [&](std::string_view, std::span<const size_t> at) -> common::Status {
        const size_t t = Newest(at);
        if (t == mem_seq) {
          const auto& [key, entry] = *mem[at[t]];
          if (entry.tombstone) return common::Status::Ok();
          return fn(key, need_values ? &entry.value : nullptr);
        }
        const SegmentReader::Entry& entry = segments[t]->entries()[at[t]];
        if (entry.tombstone) return common::Status::Ok();
        if (!need_values) return fn(entry.key, nullptr);
        WF_ASSIGN_OR_RETURN(std::string value,
                            segments[t]->ReadValue(entry));
        return fn(entry.key, &value);
      });
}

void LsmTree::UpdateGaugesLocked() const {
  if (metrics_ == nullptr) return;
  m_.memtable_bytes->Set(static_cast<int64_t>(mem_.approx_bytes()));
  m_.memtable_entries->Set(static_cast<int64_t>(mem_.entry_count()));
  m_.segments->Set(static_cast<int64_t>(segments_.runs().size()));
  m_.live_keys->Set(static_cast<int64_t>(live_count_));
  // Per-tier gauges: set every occupied tier, zero the rest we ever
  // exported so a merged-away tier does not keep reporting stale counts.
  std::map<size_t, int64_t> counts;
  for (const SegmentMeta& meta : segments_.metas()) {
    ++counts[SizeTierOf(meta.bytes)];
  }
  for (const auto& [tier, count] : counts) {
    auto it = tier_gauges_.find(tier);
    if (it == tier_gauges_.end()) {
      obs::Gauge* gauge = metrics_->GetGauge(
          metric_prefix_ + common::StrFormat("/tier%zu/segments", tier));
      it = tier_gauges_.emplace(tier, gauge).first;
    }
    it->second->Set(count);
  }
  for (const auto& [tier, gauge] : tier_gauges_) {
    if (counts.find(tier) == counts.end()) gauge->Set(0);
  }
}

}  // namespace wf::store
