#ifndef WF_COMMON_DURABLE_FILE_H_
#define WF_COMMON_DURABLE_FILE_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace wf::common {

// The durable-file layer: the one sanctioned write path for platform
// storage (wflint's platform-raw-file-io rule forbids raw std::ofstream /
// fopen writes in src/platform). Centralizing writes here buys two things:
// every byte headed for disk passes a single fault-injection point, and
// whole-file replacement is always write-temp-then-atomic-rename, so a
// crashed writer can never leave a half-written snapshot behind.

// Deterministic chaos source for the storage layer — the disk-side sibling
// of platform's RPC-level FaultInjector. Two axes:
//
//  * Probabilistic policies, keyed by path prefix (longest match wins):
//    an append may be refused outright (crash before the write), land as a
//    torn strict prefix of the record (crash mid-write), or land with one
//    bit flipped (media corruption — the writer is told Ok and only a
//    checksummed reader ever finds out). Verdicts are a pure function of
//    (seed, path, per-path append sequence), so a chaos run replays
//    exactly from its seed regardless of thread interleaving.
//
//  * A scheduled one-shot crash: ArmCrash makes the Nth append to a
//    matching path tear after a fixed byte count, after which the prefix
//    is "crashed" — every later durable op on it fails IOError until
//    ClearCrashes (the power comes back). This is what deterministic
//    kill-a-node-mid-ingest tests use.
class StorageFaultInjector {
 public:
  explicit StorageFaultInjector(uint64_t seed) : seed_(seed) {}
  StorageFaultInjector(const StorageFaultInjector&) = delete;
  StorageFaultInjector& operator=(const StorageFaultInjector&) = delete;

  struct Policy {
    // Append refused before any byte lands: the caller sees IOError and
    // must not ack the write.
    double fail_probability = 0.0;
    // A strict prefix of the record lands, then IOError — the torn tail a
    // checksummed log must stop at cleanly.
    double torn_probability = 0.0;
    // The record lands whole with one bit flipped and the writer is told
    // Ok: silent corruption only a checksummed reader detects.
    double bitflip_probability = 0.0;
  };
  void SetPolicy(const std::string& path_prefix, Policy policy);
  void ClearPolicy(const std::string& path_prefix);
  void ClearAllPolicies();

  // Schedules a crash on paths matching `path_prefix`: appends 0..n-1 go
  // through, append n writes only `torn_bytes` of its record and fails,
  // and the prefix is crashed from then on. One crash per prefix; arming
  // again replaces the previous schedule.
  void ArmCrash(const std::string& path_prefix, uint64_t after_appends,
                size_t torn_bytes);
  // Like ArmCrash, but counts whole-file durable ops (the CheckWritable
  // gate in front of WriteFileAtomic / WriteSnapshotFile and DurableFile::
  // Open) instead of appends: ops 0..n-1 succeed, op n fails and the
  // prefix is crashed from then on. This is how crash-at-every-step fuzz
  // walks a multi-file protocol (segment flush, compaction manifest swap)
  // through every possible power-loss point.
  void ArmOpCrash(const std::string& path_prefix, uint64_t after_ops);
  // Restores power: crashed prefixes accept writes again (and pending
  // armed crashes are discarded).
  void ClearCrashes();
  bool IsCrashed(const std::string& path) const;

  struct Decision {
    enum class Action { kWrite, kFail, kTorn, kBitFlip };
    Action action = Action::kWrite;
    size_t torn_bytes = 0;   // for kTorn: bytes of the record that land
    size_t flip_offset = 0;  // for kBitFlip: byte whose low bit flips
  };
  // Verdict for one append of `record_size` bytes to `path`.
  Decision DecideAppend(const std::string& path, size_t record_size);

  // Gate for non-append durable ops (atomic whole-file replacement): only
  // the crashed state blocks them.
  common::Status CheckWritable(const std::string& path);

  struct Counters {
    size_t written = 0;
    size_t failed = 0;
    size_t torn = 0;
    size_t bitflipped = 0;
    size_t crashed = 0;  // ops refused because the prefix is crashed
  };
  Counters counters() const;

 private:
  struct ArmedCrash {
    uint64_t after_appends = 0;
    size_t torn_bytes = 0;
    uint64_t seen_appends = 0;
    bool fired = false;
  };
  struct ArmedOpCrash {
    uint64_t after_ops = 0;
    uint64_t seen_ops = 0;
    bool fired = false;
  };

  bool IsCrashedLocked(const std::string& path) const;
  const Policy* MatchPolicyLocked(const std::string& path) const;

  mutable std::mutex mu_;
  const uint64_t seed_;
  std::map<std::string, Policy> policies_;
  std::map<std::string, ArmedCrash> armed_;
  std::map<std::string, ArmedOpCrash> armed_ops_;
  // Per-path append sequence; a path's verdict stream depends only on how
  // many appends that path has seen, not on global order.
  std::map<std::string, uint64_t> append_seq_;
  Counters counters_;
};

// An append-only durable file handle. Append() flushes before returning
// Ok — the contract callers rely on is "Ok means the bytes are on disk",
// so a write-ahead log may ack only after Append succeeds.
class DurableFile {
 public:
  DurableFile() = default;
  ~DurableFile() { Close(); }
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  // Opens `path` for appending, creating it if absent. `injector` may be
  // null (no storage faults); it must outlive the file.
  common::Status Open(const std::string& path,
                      StorageFaultInjector* injector = nullptr);
  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }

  // Appends `record` and flushes. On injected faults the record may be
  // refused (nothing lands) or torn (a strict prefix lands) — both return
  // IOError and the caller must not ack. An injected bit flip returns Ok:
  // the writer cannot see media corruption; readers catch it by checksum.
  common::Status Append(std::string_view record);

  // Bytes this handle believes are durably on disk (file size including
  // torn prefixes, since those bytes did land).
  uint64_t size() const { return size_; }

  void Close();

 private:
  std::string path_;
  StorageFaultInjector* injector_ = nullptr;
  // The durable-file layer is the sanctioned home of the raw stream.
  std::ofstream out_;
  uint64_t size_ = 0;
};

// Replaces `path` atomically: writes `path`.tmp, flushes, renames. A
// crash (real or injected) mid-write leaves the previous file intact;
// readers see the old complete file or the new one, never a prefix.
common::Status WriteFileAtomic(const std::string& path,
                               std::string_view content,
                               StorageFaultInjector* injector = nullptr);

// Whole file as bytes, read into a buffer sized from the file in one
// read; IOError when unreadable.
common::Result<std::string> ReadFileToString(const std::string& path);

bool FileExists(const std::string& path);

// --- Checksummed snapshot envelope ------------------------------------------
//
// Every platform snapshot (data-store image, index image) is wrapped in a
// one-line header:
//
//   wfsnap <kind> <version> <payload-bytes> <fnv64-hex>\n<payload>
//
// and written atomically. A reader rejects anything that does not verify —
// wrong magic or kind, short payload, checksum mismatch — with
// Status::Corruption, so a flipped bit or truncated copy can never load as
// silently wrong data.
//
// The registered envelope kinds. Every durable artifact in the system
// names its kind here so a file renamed across roles (a segment posing as
// a manifest, say) is rejected by kind mismatch, not parsed as garbage.
inline constexpr char kSnapKindStore[] = "store";        // DataStore image
inline constexpr char kSnapKindIndex[] = "index";        // InvertedIndex image
inline constexpr char kSnapKindSegment[] = "segment";    // LSM store segment
inline constexpr char kSnapKindIndexSegment[] = "indexseg";  // posting segment
inline constexpr char kSnapKindManifest[] = "manifest";  // segment manifest

// Writes the payload `parts` (concatenated) under the envelope, atomically
// as WriteFileAtomic does. The parts go to disk one after another, never
// joined in memory, so a writer can hand over a payload it built in pieces,
// its first line last.
common::Status WriteSnapshotFile(const std::string& path,
                                 const std::string& kind, uint32_t version,
                                 std::span<const std::string_view> parts,
                                 StorageFaultInjector* injector = nullptr);
// The one-part form.
common::Status WriteSnapshotFile(const std::string& path,
                                 const std::string& kind, uint32_t version,
                                 std::string_view payload,
                                 StorageFaultInjector* injector = nullptr);

// Reads and verifies; returns the payload, moved out of the file's buffer
// in place rather than copied. IOError when the file cannot be read,
// Corruption when the envelope does not verify or `kind` / `version` do
// not match.
common::Result<std::string> ReadSnapshotFile(const std::string& path,
                                             const std::string& kind,
                                             uint32_t version);

}  // namespace wf::common

#endif  // WF_COMMON_DURABLE_FILE_H_
