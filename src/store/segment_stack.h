#ifndef WF_STORE_SEGMENT_STACK_H_
#define WF_STORE_SEGMENT_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "store/manifest.h"

namespace wf::store {

// Size tier of a run file of `bytes`: tier 0 holds runs up to 4 KiB, and
// each tier up holds runs 4x larger (capped at tier 16).
size_t SizeTierOf(uint64_t bytes);

// `<base>-<id>.wfseg`, the file name of run `id`.
std::string RunFileName(const std::string& base, uint64_t id);

// The durable life of a tiered structure (DESIGN.md §13): a stack of
// immutable run files, oldest → newest, listed in `<base>.manifest`. The
// store (runs of SegmentReader) and the index (runs of IndexSegmentReader)
// each own one; they supply only how a run file is written and how an
// age-contiguous range of runs merges.
//
// Every change — appending a run, or replacing a range with its merge —
// writes the new file, opens it, and then atomically rewrites the
// manifest. That swap is the one commit point: a crash before it leaves
// the new file an orphan the next Open deletes; a crash after it leaves
// the replaced files stale, and they are deleted right away or by the next
// Open.
//
// Instantiated for SegmentReader and IndexSegmentReader. Not thread-safe:
// the owner serializes every call.
template <typename Reader>
class SegmentStack {
 public:
  // Writes one run file at `path`; its durable ops go through `injector`.
  using WriteFn = std::function<common::Status(
      const std::string& path, common::StorageFaultInjector* injector)>;
  // Writes the merge of `inputs` (age-contiguous, oldest first) as one run
  // file at `path`. `includes_oldest`: no older run is left below them.
  using MergeFn = std::function<common::Status(
      std::span<const std::unique_ptr<Reader>> inputs, bool includes_oldest,
      const std::string& path, common::StorageFaultInjector* injector)>;

  // Registers `<prefix>/compactions_total`,
  // `<prefix>/compaction_bytes_rewritten_total`, `<prefix>/compaction_us`
  // and `<prefix>/bytes_written_total` (the file bytes of every run the
  // stack commits: flushes, freezes and compaction outputs alike); null
  // detaches. Every run is written once and is either live or the input of
  // one compaction, so bytes written = live run bytes + bytes rewritten.
  void AttachMetrics(const obs::MetricsRegistry* metrics,
                     const std::string& prefix);

  // Loads `<dir>/<base>.manifest` and opens every run it lists (none in a
  // fresh directory), then deletes what a crash can leave behind: run
  // files the manifest does not list, and `.tmp` files of an interrupted
  // atomic write. Files are matched by name, so `dir`, `dir/` and `dir/./`
  // name the same runs. Corruption when a file fails its checksum,
  // FailedPrecondition when already open; the stack stays closed on any
  // error. `injector` may be null and must outlive the stack.
  common::Status Open(const std::string& dir, const std::string& base,
                      size_t compaction_fanout,
                      common::StorageFaultInjector* injector);
  bool is_open() const { return open_; }

  // Oldest → newest, parallel to metas().
  const std::vector<std::unique_ptr<Reader>>& runs() const { return runs_; }
  const std::vector<SegmentMeta>& metas() const { return manifest_.segments; }
  uint64_t compactions() const { return compactions_; }

  // Writes a new newest run and commits it.
  common::Status Append(const WriteFn& write) {
    return Replace(runs_.size(), runs_.size(), write);
  }

  // Merges age-contiguous same-tier ranges of at least `compaction_fanout`
  // runs until none is left. Only adjacent runs merge, and the merge takes
  // their place, so the oldest → newest precedence is untouched.
  common::Status Compact(const MergeFn& merge);

 private:
  std::string ManifestPath() const;
  std::string RunPath(uint64_t id) const;
  // Puts the run `write` produces in place of runs [begin, end).
  common::Status Replace(size_t begin, size_t end, const WriteFn& write);

  std::string dir_;
  std::string base_;
  size_t fanout_ = 4;
  common::StorageFaultInjector* injector_ = nullptr;
  bool open_ = false;
  ManifestData manifest_;
  std::vector<std::unique_ptr<Reader>> runs_;
  uint64_t compactions_ = 0;
  obs::Counter* compactions_total_ = nullptr;
  obs::Counter* bytes_rewritten_total_ = nullptr;
  obs::Counter* bytes_written_total_ = nullptr;
  obs::Histogram* compaction_us_ = nullptr;
};

}  // namespace wf::store

#endif  // WF_STORE_SEGMENT_STACK_H_
