#include "store/segment_stack.h"

#include <filesystem>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "obs/timer.h"
#include "store/index_segment.h"
#include "store/segment.h"

namespace wf::store {

namespace {

// The first age-contiguous range [begin, end) of at least `fanout` runs
// that share a size tier; begin == end when there is none or fanout < 2.
std::pair<size_t, size_t> NextCompactionRange(
    const std::vector<SegmentMeta>& runs, size_t fanout) {
  if (fanout < 2) return {runs.size(), runs.size()};
  for (size_t i = 0; i < runs.size();) {
    const size_t tier = SizeTierOf(runs[i].bytes);
    size_t j = i + 1;
    while (j < runs.size() && SizeTierOf(runs[j].bytes) == tier) ++j;
    if (j - i >= fanout) return {i, j};
    i = j;
  }
  return {runs.size(), runs.size()};
}

void RemoveOrphanFiles(const std::string& dir, const std::string& base,
                       const ManifestData& manifest) {
  std::set<std::string> adopted;
  for (const SegmentMeta& meta : manifest.segments) {
    adopted.insert(RunFileName(base, meta.id));
  }
  std::error_code ec;
  std::vector<std::filesystem::path> orphans;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!common::StartsWith(name, base + "-") &&
        !common::StartsWith(name, base + ".")) {
      continue;
    }
    if (common::EndsWith(name, ".tmp") ||
        (common::EndsWith(name, ".wfseg") && adopted.count(name) == 0)) {
      orphans.push_back(entry.path());
    }
  }
  for (const std::filesystem::path& orphan : orphans) {
    std::filesystem::remove(orphan, ec);
  }
}

}  // namespace

size_t SizeTierOf(uint64_t bytes) {
  constexpr size_t kMaxTier = 16;
  size_t tier = 0;
  double ceiling = 4096.0;
  while (static_cast<double>(bytes) > ceiling && tier < kMaxTier) {
    ceiling *= 4.0;
    ++tier;
  }
  return tier;
}

std::string RunFileName(const std::string& base, uint64_t id) {
  return base +
         common::StrFormat("-%llu.wfseg", static_cast<unsigned long long>(id));
}

template <typename Reader>
void SegmentStack<Reader>::AttachMetrics(const obs::MetricsRegistry* metrics,
                                         const std::string& prefix) {
  compactions_total_ = nullptr;
  bytes_rewritten_total_ = nullptr;
  compaction_us_ = nullptr;
  bytes_written_total_ = nullptr;
  if (metrics == nullptr) return;
  compactions_total_ = metrics->GetCounter(prefix + "/compactions_total");
  bytes_rewritten_total_ =
      metrics->GetCounter(prefix + "/compaction_bytes_rewritten_total");
  compaction_us_ = metrics->GetHistogram(prefix + "/compaction_us",
                                         obs::DefaultLatencyBoundsUs(),
                                         /*timing=*/true);
  bytes_written_total_ = metrics->GetCounter(prefix + "/bytes_written_total");
}

template <typename Reader>
common::Status SegmentStack<Reader>::Open(
    const std::string& dir, const std::string& base, size_t compaction_fanout,
    common::StorageFaultInjector* injector) {
  if (open_) return common::Status::FailedPrecondition("segments already open");
  dir_ = dir;
  base_ = base;
  ManifestData manifest;
  std::vector<std::unique_ptr<Reader>> runs;
  if (common::FileExists(ManifestPath())) {
    WF_ASSIGN_OR_RETURN(manifest, LoadManifest(ManifestPath()));
    for (const SegmentMeta& meta : manifest.segments) {
      WF_ASSIGN_OR_RETURN(std::unique_ptr<Reader> run,
                          Reader::Open(RunPath(meta.id)));
      runs.push_back(std::move(run));
    }
  }
  RemoveOrphanFiles(dir_, base_, manifest);
  fanout_ = compaction_fanout;
  injector_ = injector;
  manifest_ = std::move(manifest);
  runs_ = std::move(runs);
  open_ = true;
  return common::Status::Ok();
}

template <typename Reader>
common::Status SegmentStack<Reader>::Compact(const MergeFn& merge) {
  for (;;) {
    const auto [begin, end] = NextCompactionRange(manifest_.segments, fanout_);
    if (begin == end) return common::Status::Ok();
    obs::ScopedTimer timer(compaction_us_);
    uint64_t rewritten = 0;
    for (size_t i = begin; i < end; ++i) {
      rewritten += manifest_.segments[i].bytes;
    }
    const std::span<const std::unique_ptr<Reader>> inputs(runs_.data() + begin,
                                                          end - begin);
    const bool includes_oldest = begin == 0;
    WF_RETURN_IF_ERROR(Replace(
        begin, end,
        [&](const std::string& path, common::StorageFaultInjector* injector) {
          return merge(inputs, includes_oldest, path, injector);
        }));
    ++compactions_;
    if (compactions_total_ != nullptr) compactions_total_->Add();
    if (bytes_rewritten_total_ != nullptr) {
      bytes_rewritten_total_->Add(rewritten);
    }
  }
}

template <typename Reader>
std::string SegmentStack<Reader>::ManifestPath() const {
  return dir_ + "/" + base_ + ".manifest";
}

template <typename Reader>
std::string SegmentStack<Reader>::RunPath(uint64_t id) const {
  return dir_ + "/" + RunFileName(base_, id);
}

template <typename Reader>
common::Status SegmentStack<Reader>::Replace(size_t begin, size_t end,
                                             const WriteFn& write) {
  const uint64_t id = manifest_.next_segment_id;
  const std::string path = RunPath(id);
  WF_RETURN_IF_ERROR(write(path, injector_));
  WF_ASSIGN_OR_RETURN(std::unique_ptr<Reader> run, Reader::Open(path));
  const auto first = manifest_.segments.begin();
  ManifestData next;
  next.next_segment_id = id + 1;
  next.segments.assign(first, first + static_cast<long>(begin));
  next.segments.push_back(
      SegmentMeta{id, run->record_count(), run->file_bytes()});
  next.segments.insert(next.segments.end(), first + static_cast<long>(end),
                       manifest_.segments.end());
  WF_RETURN_IF_ERROR(SaveManifest(ManifestPath(), next, injector_));
  if (bytes_written_total_ != nullptr) {
    bytes_written_total_->Add(run->file_bytes());
  }
  std::vector<std::string> stale;
  for (size_t i = begin; i < end; ++i) stale.push_back(runs_[i]->path());
  runs_.erase(runs_.begin() + static_cast<long>(begin),
              runs_.begin() + static_cast<long>(end));
  runs_.insert(runs_.begin() + static_cast<long>(begin), std::move(run));
  manifest_ = std::move(next);
  std::error_code ec;
  for (const std::string& file : stale) std::filesystem::remove(file, ec);
  return common::Status::Ok();
}

template class SegmentStack<SegmentReader>;
template class SegmentStack<IndexSegmentReader>;

}  // namespace wf::store
