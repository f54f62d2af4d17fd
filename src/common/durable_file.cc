#include "common/durable_file.h"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace wf::common {

// --- StorageFaultInjector ---------------------------------------------------

void StorageFaultInjector::SetPolicy(const std::string& path_prefix,
                                     Policy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policies_[path_prefix] = policy;
}

void StorageFaultInjector::ClearPolicy(const std::string& path_prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  policies_.erase(path_prefix);
}

void StorageFaultInjector::ClearAllPolicies() {
  std::lock_guard<std::mutex> lock(mu_);
  policies_.clear();
}

void StorageFaultInjector::ArmCrash(const std::string& path_prefix,
                                    uint64_t after_appends,
                                    size_t torn_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_[path_prefix] =
      ArmedCrash{after_appends, torn_bytes, /*seen_appends=*/0,
                 /*fired=*/false};
}

void StorageFaultInjector::ArmOpCrash(const std::string& path_prefix,
                                      uint64_t after_ops) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ops_[path_prefix] = ArmedOpCrash{after_ops, /*seen_ops=*/0,
                                         /*fired=*/false};
}

void StorageFaultInjector::ClearCrashes() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  armed_ops_.clear();
}

bool StorageFaultInjector::IsCrashedLocked(const std::string& path) const {
  for (const auto& [prefix, crash] : armed_) {
    if (crash.fired && StartsWith(path, prefix)) return true;
  }
  for (const auto& [prefix, crash] : armed_ops_) {
    if (crash.fired && StartsWith(path, prefix)) return true;
  }
  return false;
}

bool StorageFaultInjector::IsCrashed(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return IsCrashedLocked(path);
}

const StorageFaultInjector::Policy* StorageFaultInjector::MatchPolicyLocked(
    const std::string& path) const {
  const Policy* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, policy] : policies_) {
    if (!StartsWith(path, prefix)) continue;
    if (best == nullptr || prefix.size() >= best_len) {
      best = &policy;
      best_len = prefix.size();
    }
  }
  return best;
}

StorageFaultInjector::Decision StorageFaultInjector::DecideAppend(
    const std::string& path, size_t record_size) {
  std::lock_guard<std::mutex> lock(mu_);
  Decision decision;
  if (IsCrashedLocked(path)) {
    decision.action = Decision::Action::kFail;
    ++counters_.crashed;
    return decision;
  }
  // Scheduled crash first: it is an explicit script, not a dice roll.
  for (auto& [prefix, crash] : armed_) {
    if (crash.fired || !StartsWith(path, prefix)) continue;
    if (crash.seen_appends++ == crash.after_appends) {
      crash.fired = true;
      decision.action = Decision::Action::kTorn;
      decision.torn_bytes =
          record_size > 0 ? crash.torn_bytes % record_size : 0;
      ++counters_.torn;
      return decision;
    }
  }
  const Policy* policy = MatchPolicyLocked(path);
  if (policy == nullptr) {
    ++counters_.written;
    return decision;
  }
  // As with the RPC injector: the verdict for "the k-th append to path P"
  // is a pure function of (seed, P, k), whatever thread gets there first.
  uint64_t seq = append_seq_[path]++;
  uint64_t mix =
      HashCombine(HashCombine(seed_, Fnv1a64(path)), seq);
  Rng rng(mix);
  if (rng.Bernoulli(policy->fail_probability)) {
    decision.action = Decision::Action::kFail;
    ++counters_.failed;
  } else if (rng.Bernoulli(policy->torn_probability)) {
    decision.action = Decision::Action::kTorn;
    decision.torn_bytes =
        record_size > 1
            ? static_cast<size_t>(
                  rng.Uniform(1, static_cast<int64_t>(record_size) - 1))
            : 0;
    ++counters_.torn;
  } else if (rng.Bernoulli(policy->bitflip_probability)) {
    decision.action = Decision::Action::kBitFlip;
    decision.flip_offset =
        record_size > 0
            ? static_cast<size_t>(
                  rng.Uniform(0, static_cast<int64_t>(record_size) - 1))
            : 0;
    ++counters_.bitflipped;
  } else {
    ++counters_.written;
  }
  return decision;
}

common::Status StorageFaultInjector::CheckWritable(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (IsCrashedLocked(path)) {
    ++counters_.crashed;
    return Status::IOError("simulated storage crash: " + path);
  }
  // A scheduled op crash fires on the Nth gated durable op, then leaves
  // the prefix crashed — the same one-shot power-loss contract as
  // ArmCrash, but stepping whole-file ops instead of appends.
  for (auto& [prefix, crash] : armed_ops_) {
    if (crash.fired || !StartsWith(path, prefix)) continue;
    if (crash.seen_ops++ == crash.after_ops) {
      crash.fired = true;
      ++counters_.crashed;
      return Status::IOError("simulated storage crash (op): " + path);
    }
  }
  return Status::Ok();
}

StorageFaultInjector::Counters StorageFaultInjector::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

// --- DurableFile ------------------------------------------------------------

common::Status DurableFile::Open(const std::string& path,
                                 StorageFaultInjector* injector) {
  if (is_open()) return Status::FailedPrecondition("already open: " + path_);
  if (injector != nullptr) {
    WF_RETURN_IF_ERROR(injector->CheckWritable(path));
  }
  out_.open(path, std::ios::app | std::ios::binary);
  if (!out_) return Status::IOError("cannot open for append: " + path);
  path_ = path;
  injector_ = injector;
  std::error_code ec;
  uint64_t existing = std::filesystem::file_size(path, ec);
  size_ = ec ? 0 : existing;
  return Status::Ok();
}

common::Status DurableFile::Append(std::string_view record) {
  if (!is_open()) return Status::FailedPrecondition("file not open");
  StorageFaultInjector::Decision decision;
  if (injector_ != nullptr) {
    decision = injector_->DecideAppend(path_, record.size());
  }
  using Action = StorageFaultInjector::Decision::Action;
  switch (decision.action) {
    case Action::kFail:
      return Status::IOError("simulated append failure: " + path_);
    case Action::kTorn: {
      // The crash hit mid-write: a strict prefix lands and is flushed (it
      // really is on disk — that is the torn tail recovery must detect).
      out_.write(record.data(),
                 static_cast<std::streamsize>(decision.torn_bytes));
      out_.flush();
      size_ += decision.torn_bytes;
      return Status::IOError("simulated torn write: " + path_);
    }
    case Action::kBitFlip: {
      std::string mangled(record);
      mangled[decision.flip_offset % mangled.size()] ^= 0x01;
      out_.write(mangled.data(),
                 static_cast<std::streamsize>(mangled.size()));
      out_.flush();
      size_ += mangled.size();
      // The writer cannot see media corruption; Ok by design.
      return out_ ? Status::Ok()
                  : Status::IOError("write failed: " + path_);
    }
    case Action::kWrite:
      break;
  }
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) return Status::IOError("write failed: " + path_);
  size_ += record.size();
  return Status::Ok();
}

void DurableFile::Close() {
  if (out_.is_open()) out_.close();
  path_.clear();
  injector_ = nullptr;
  size_ = 0;
}

// --- Whole-file helpers -----------------------------------------------------

namespace {

// WriteFileAtomic over the concatenation of `parts`.
common::Status WritePartsAtomic(const std::string& path,
                                std::span<const std::string_view> parts,
                                StorageFaultInjector* injector) {
  if (injector != nullptr) {
    WF_RETURN_IF_ERROR(injector->CheckWritable(path));
  }
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
    if (!out) return Status::IOError("cannot open for write: " + tmp_path);
    for (std::string_view part : parts) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return Status::IOError("write failed: " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::Ok();
}

}  // namespace

common::Status WriteFileAtomic(const std::string& path,
                               std::string_view content,
                               StorageFaultInjector* injector) {
  const std::string_view parts[] = {content};
  return WritePartsAtomic(path, parts, injector);
}

common::Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open for read: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot size: " + path);
  std::string content(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(content.data(), size);
  if (in.gcount() != size) return Status::IOError("read failed: " + path);
  return content;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

// --- Snapshot envelope ------------------------------------------------------

namespace {
constexpr char kSnapshotMagic[] = "wfsnap";
}  // namespace

common::Status WriteSnapshotFile(const std::string& path,
                                 const std::string& kind, uint32_t version,
                                 std::span<const std::string_view> parts,
                                 StorageFaultInjector* injector) {
  size_t payload_size = 0;
  uint64_t checksum = kFnv1a64Basis;
  for (std::string_view part : parts) {
    payload_size += part.size();
    checksum = Fnv1a64(part, checksum);
  }
  const std::string header =
      StrFormat("%s %s %u %zu %016llx\n", kSnapshotMagic, kind.c_str(),
                version, payload_size,
                static_cast<unsigned long long>(checksum));
  std::vector<std::string_view> file;
  file.reserve(parts.size() + 1);
  file.push_back(header);
  file.insert(file.end(), parts.begin(), parts.end());
  return WritePartsAtomic(path, file, injector);
}

common::Status WriteSnapshotFile(const std::string& path,
                                 const std::string& kind, uint32_t version,
                                 std::string_view payload,
                                 StorageFaultInjector* injector) {
  const std::string_view parts[] = {payload};
  return WriteSnapshotFile(path, kind, version, parts, injector);
}

common::Result<std::string> ReadSnapshotFile(const std::string& path,
                                             const std::string& kind,
                                             uint32_t version) {
  WF_ASSIGN_OR_RETURN(std::string file, ReadFileToString(path));
  const size_t newline = file.find('\n');
  if (newline == std::string::npos) {
    return Status::Corruption("snapshot missing header: " + path);
  }
  std::string_view parts[5];
  if (!SplitInto(std::string_view(file).substr(0, newline), ' ', parts) ||
      parts[0] != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic in " + path);
  }
  if (parts[1] != kind) {
    return Status::Corruption("snapshot kind mismatch in " + path +
                              ": got '" + std::string(parts[1]) +
                              "', want '" + kind + "'");
  }
  uint64_t parsed_version = 0;
  if (!ParseUint64(parts[2], &parsed_version) || parsed_version != version) {
    return Status::Corruption("snapshot version mismatch in " + path);
  }
  uint64_t payload_size = 0;
  if (!ParseUint64(parts[3], &payload_size)) {
    return Status::Corruption("bad snapshot size in " + path);
  }
  uint64_t checksum = 0;
  if (parts[4].size() != 16 || !ParseUint64(parts[4], &checksum, 16)) {
    return Status::Corruption("bad snapshot checksum in " + path);
  }
  const std::string_view payload = std::string_view(file).substr(newline + 1);
  if (payload.size() != payload_size) {
    return Status::Corruption(
        StrFormat("snapshot truncated: %s has %zu payload bytes, header "
                  "says %llu",
                  path.c_str(), payload.size(),
                  static_cast<unsigned long long>(payload_size)));
  }
  if (Fnv1a64(payload) != checksum) {
    return Status::Corruption("snapshot checksum mismatch in " + path);
  }
  file.erase(0, newline + 1);
  return file;
}

}  // namespace wf::common
