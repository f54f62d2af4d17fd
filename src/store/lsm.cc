#include "store/lsm.h"

#include <deque>
#include <span>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/timer.h"

namespace wf::store {

namespace {

// Compaction's merge: a k-way merge across the range, newest (last)
// input winning each key. Tombstones are dropped only when the range
// includes the oldest segment: otherwise a yet-older segment may still
// hold the key, and dropping the tombstone would resurrect it.
common::Status WriteMergedSegment(
    std::span<const std::unique_ptr<SegmentReader>> inputs,
    bool includes_oldest, const std::string& path,
    common::StorageFaultInjector* injector) {
  std::vector<size_t> pos(inputs.size(), 0);
  std::deque<std::string> values;  // stable storage the records view
  std::vector<SegmentRecord> records;
  for (;;) {
    const std::string* min_key = nullptr;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (pos[i] >= inputs[i]->entries().size()) continue;
      const std::string& key = inputs[i]->entries()[pos[i]].key;
      if (min_key == nullptr || key < *min_key) min_key = &key;
    }
    if (min_key == nullptr) break;
    const std::string& key = *min_key;
    // Every input holding the key advances; the newest one wins.
    const SegmentReader* win_reader = nullptr;
    const SegmentReader::Entry* win_entry = nullptr;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (pos[i] >= inputs[i]->entries().size()) continue;
      const SegmentReader::Entry& entry = inputs[i]->entries()[pos[i]];
      if (entry.key != key) continue;
      win_reader = inputs[i].get();
      win_entry = &entry;
      ++pos[i];
    }
    if (win_entry->tombstone) {
      if (!includes_oldest) records.push_back({win_entry->key, {}, true});
      continue;
    }
    WF_ASSIGN_OR_RETURN(std::string value, win_reader->ReadValue(*win_entry));
    values.push_back(std::move(value));
    records.push_back({win_entry->key, values.back(), false});
  }
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
  live_count_ = CountLiveLocked();
  UpdateGaugesLocked();
  return common::Status::Ok();
}

bool LsmTree::segmented() const {
  common::MutexLock lock(mu_);
  return segments_.is_open();
}

common::Status LsmTree::Put(std::string_view key, std::string_view value) {
  common::MutexLock lock(mu_);
  size_t tiers = 0;
  if (PresenceLocked(key, &tiers) != Presence::kLive) ++live_count_;
  mem_.Set(key, value);
  common::Status flushed = MaybeFlushLocked();
  UpdateGaugesLocked();
  return flushed;
}

common::Status LsmTree::Insert(std::string_view key, std::string_view value) {
  common::MutexLock lock(mu_);
  size_t tiers = 0;
  if (PresenceLocked(key, &tiers) == Presence::kLive) {
    return common::Status::AlreadyExists("key exists: " + std::string(key));
  }
  mem_.Set(key, value);
  ++live_count_;
  common::Status flushed = MaybeFlushLocked();
  UpdateGaugesLocked();
  return flushed;
}

common::Status LsmTree::Delete(std::string_view key) {
  common::MutexLock lock(mu_);
  size_t tiers = 0;
  if (PresenceLocked(key, &tiers) != Presence::kLive) {
    return common::Status::NotFound("no such key: " + std::string(key));
  }
  mem_.Remove(key);
  --live_count_;
  common::Status flushed = MaybeFlushLocked();
  UpdateGaugesLocked();
  return flushed;
}

common::Status LsmTree::Update(
    std::string_view key,
    const std::function<common::Status(std::string*)>& fn) {
  common::MutexLock lock(mu_);
  std::string value;
  const Memtable::Entry* mem_entry = mem_.Find(key);
  if (mem_entry != nullptr) {
    if (mem_entry->tombstone) {
      return common::Status::NotFound("no such key: " + std::string(key));
    }
    value = mem_entry->value;
  } else {
    bool found = false;
    for (auto it = segments_.runs().rbegin(); it != segments_.runs().rend();
         ++it) {
      if (!BloomPassLocked(**it, key)) continue;
      const SegmentReader::Entry* entry = (*it)->Find(key);
      if (entry == nullptr) continue;
      if (entry->tombstone) {
        return common::Status::NotFound("no such key: " + std::string(key));
      }
      WF_ASSIGN_OR_RETURN(value, (*it)->ReadValue(*entry));
      found = true;
      break;
    }
    if (!found) {
      return common::Status::NotFound("no such key: " + std::string(key));
    }
  }
  WF_RETURN_IF_ERROR(fn(&value));
  mem_.Set(key, value);
  common::Status flushed = MaybeFlushLocked();
  UpdateGaugesLocked();
  return flushed;
}

common::Result<std::string> LsmTree::Get(std::string_view key) const {
  common::MutexLock lock(mu_);
  if (m_.gets != nullptr) m_.gets->Add();
  size_t tiers = 0;
  const Memtable::Entry* mem_entry = mem_.Find(key);
  ++tiers;
  if (mem_entry != nullptr) {
    if (m_.read_tiers != nullptr) m_.read_tiers->Add(tiers);
    if (mem_entry->tombstone) {
      return common::Status::NotFound("no such key: " + std::string(key));
    }
    return mem_entry->value;
  }
  for (auto it = segments_.runs().rbegin(); it != segments_.runs().rend();
       ++it) {
    ++tiers;
    if (!BloomPassLocked(**it, key)) continue;
    const SegmentReader::Entry* entry = (*it)->Find(key);
    if (entry == nullptr) continue;
    if (m_.read_tiers != nullptr) m_.read_tiers->Add(tiers);
    if (entry->tombstone) {
      return common::Status::NotFound("no such key: " + std::string(key));
    }
    return (*it)->ReadValue(*entry);
  }
  if (m_.read_tiers != nullptr) m_.read_tiers->Add(tiers);
  return common::Status::NotFound("no such key: " + std::string(key));
}

bool LsmTree::Contains(std::string_view key) const {
  common::MutexLock lock(mu_);
  size_t tiers = 0;
  return PresenceLocked(key, &tiers) == Presence::kLive;
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

common::Status LsmTree::ClearEphemeral() {
  common::MutexLock lock(mu_);
  if (segments_.is_open()) {
    return common::Status::FailedPrecondition(
        "segment-mode tree cannot be cleared in memory");
  }
  mem_.Clear();
  live_count_ = 0;
  UpdateGaugesLocked();
  return common::Status::Ok();
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

LsmTree::Presence LsmTree::PresenceLocked(std::string_view key,
                                          size_t* tiers_examined) const {
  *tiers_examined = 1;
  const Memtable::Entry* mem_entry = mem_.Find(key);
  if (mem_entry != nullptr) {
    return mem_entry->tombstone ? Presence::kTombstoned : Presence::kLive;
  }
  for (auto it = segments_.runs().rbegin(); it != segments_.runs().rend();
       ++it) {
    ++*tiers_examined;
    if (!BloomPassLocked(**it, key)) continue;
    const SegmentReader::Entry* entry = (*it)->Find(key);
    if (entry == nullptr) continue;
    return entry->tombstone ? Presence::kTombstoned : Presence::kLive;
  }
  return Presence::kAbsent;
}

bool LsmTree::BloomPassLocked(const SegmentReader& segment,
                              std::string_view key) const {
  if (!segment.MayContain(key)) {
    if (m_.bloom_hits != nullptr) m_.bloom_hits->Add();
    return false;
  }
  if (m_.bloom_misses != nullptr) m_.bloom_misses->Add();
  return true;
}

common::Status LsmTree::MaybeFlushLocked() {
  if (!segments_.is_open()) return common::Status::Ok();
  if (mem_.approx_bytes() < options_.memtable_ceiling_bytes) {
    return common::Status::Ok();
  }
  WF_RETURN_IF_ERROR(FlushLocked());
  return segments_.Compact(WriteMergedSegment);
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
  // One cursor per tier; precedence is memtable first, then segments
  // newest → oldest. Every cursor holding the minimum key advances, and
  // the highest-precedence one supplies the record.
  const std::vector<std::unique_ptr<SegmentReader>>& segments =
      segments_.runs();
  auto mem_it = mem_.entries().begin();
  std::vector<size_t> seg_pos(segments.size(), 0);
  for (;;) {
    const std::string* min_key = nullptr;
    if (mem_it != mem_.entries().end()) min_key = &mem_it->first;
    for (size_t i = 0; i < segments.size(); ++i) {
      if (seg_pos[i] >= segments[i]->entries().size()) continue;
      const std::string& key = segments[i]->entries()[seg_pos[i]].key;
      if (min_key == nullptr || key < *min_key) min_key = &key;
    }
    if (min_key == nullptr) return common::Status::Ok();
    const std::string key = *min_key;

    bool tombstone = false;
    bool from_mem = false;
    const SegmentReader* win_reader = nullptr;
    const SegmentReader::Entry* win_entry = nullptr;
    if (mem_it != mem_.entries().end() && mem_it->first == key) {
      from_mem = true;
      tombstone = mem_it->second.tombstone;
    }
    // Advance all matching segment cursors; remember the newest match.
    for (size_t i = 0; i < segments.size(); ++i) {
      if (seg_pos[i] >= segments[i]->entries().size()) continue;
      const SegmentReader::Entry& entry =
          segments[i]->entries()[seg_pos[i]];
      if (entry.key != key) continue;
      if (!from_mem) {
        win_reader = segments[i].get();
        win_entry = &entry;
      }
      ++seg_pos[i];
    }
    if (!from_mem && win_entry != nullptr) tombstone = win_entry->tombstone;

    if (!tombstone) {
      if (!need_values) {
        WF_RETURN_IF_ERROR(fn(key, nullptr));
      } else if (from_mem) {
        WF_RETURN_IF_ERROR(fn(key, &mem_it->second.value));
      } else {
        WF_ASSIGN_OR_RETURN(std::string value,
                            win_reader->ReadValue(*win_entry));
        WF_RETURN_IF_ERROR(fn(key, &value));
      }
    }
    if (from_mem) ++mem_it;
  }
}

size_t LsmTree::CountLiveLocked() const {
  size_t live = 0;
  WF_CHECK_OK(ForEachMergedLocked(
      /*need_values=*/false,
      [&live](const std::string&, const std::string*) {
        ++live;
        return common::Status::Ok();
      }));
  return live;
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
