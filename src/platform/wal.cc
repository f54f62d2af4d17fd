#include "platform/wal.h"

#include <cstdint>

#include "common/hash.h"
#include "common/string_util.h"

namespace wf::platform {

using ::wf::common::Status;

namespace {
constexpr char kWalHeader[] = "wfwal 1\n";
constexpr size_t kWalHeaderSize = sizeof(kWalHeader) - 1;
}  // namespace

common::Status WriteAheadLog::Open(const std::string& path,
                                   common::StorageFaultInjector* injector) {
  if (is_open()) return Status::FailedPrecondition("log already open");
  WF_RETURN_IF_ERROR(file_.Open(path, injector));
  if (file_.size() == 0) {
    Status s = file_.Append(std::string_view(kWalHeader, kWalHeaderSize));
    if (!s.ok()) {
      file_.Close();
      return s;
    }
  }
  path_ = path;
  injector_ = injector;
  acked_bytes_ = file_.size();
  appended_records_ = 0;
  poisoned_ = false;
  return Status::Ok();
}

common::Status WriteAheadLog::Append(std::string_view record) {
  if (!is_open()) return Status::FailedPrecondition("log not open");
  if (poisoned_) {
    return Status::IOError(
        "log has a torn tail from an earlier failed append; recover and "
        "Reset() before appending: " +
        path_);
  }
  std::string frame = common::StrFormat(
      "rec %zu %016llx\n", record.size(),
      static_cast<unsigned long long>(common::Fnv1a64(record)));
  frame.append(record.data(), record.size());
  frame += '\n';
  const uint64_t before = file_.size();
  Status s = file_.Append(frame);
  if (!s.ok()) {
    // If any prefix of the frame landed, later appends would sit behind an
    // unverifiable tail and be silently dropped by Replay — refuse them
    // until recovery truncates the log.
    if (file_.size() != before) poisoned_ = true;
    return s;
  }
  acked_bytes_ = file_.size();
  ++appended_records_;
  return Status::Ok();
}

common::Result<WriteAheadLog::ReplayResult> WriteAheadLog::Replay(
    const std::string& path) {
  ReplayResult result;
  if (!common::FileExists(path)) return result;  // never written: empty log
  common::Result<std::string> content_or = common::ReadFileToString(path);
  if (!content_or.ok()) return content_or.status();
  const std::string& content = content_or.value();
  if (content.empty()) return result;
  if (content.size() < kWalHeaderSize) {
    // A prefix of the header: the creating write itself was torn.
    if (content ==
        std::string_view(kWalHeader).substr(0, content.size())) {
      result.torn_tail = true;
      return result;
    }
    return Status::Corruption("not a WAL file: " + path);
  }
  if (content.compare(0, kWalHeaderSize, kWalHeader) != 0) {
    return Status::Corruption("bad WAL header in " + path);
  }
  size_t pos = kWalHeaderSize;
  result.valid_bytes = pos;
  while (pos < content.size()) {
    size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn frame line
    std::string_view parts[3];
    uint64_t len = 0;
    uint64_t checksum = 0;
    if (!common::SplitInto(std::string_view(content).substr(pos, nl - pos),
                           ' ', parts) ||
        parts[0] != "rec" || parts[2].size() != 16 ||
        !common::ParseUint64(parts[1], &len) ||
        !common::ParseUint64(parts[2], &checksum, 16)) {
      break;  // unparseable frame: torn or corrupt tail
    }
    const size_t payload_at = nl + 1;
    // The payload and its '\n' must fit; written so no length can wrap.
    if (len >= content.size() - payload_at) break;  // payload torn
    if (content[payload_at + len] != '\n') break;
    std::string_view payload(content.data() + payload_at, len);
    if (common::Fnv1a64(payload) != checksum) break;  // bit rot
    result.records.emplace_back(payload);
    pos = payload_at + len + 1;
    result.valid_bytes = pos;
  }
  // Anything left past the last verified record is the torn tail. Nothing
  // beyond it is trusted: it was written after a write already lost.
  result.torn_tail = pos < content.size();
  return result;
}

common::Status WriteAheadLog::Reset() {
  if (!is_open()) return Status::FailedPrecondition("log not open");
  file_.Close();
  Status s = common::WriteFileAtomic(
      path_, std::string_view(kWalHeader, kWalHeaderSize), injector_);
  // Reopen even after a failed truncation so the handle stays usable; the
  // old log (and its tail) is still intact on failure.
  Status reopen = file_.Open(path_, injector_);
  if (!s.ok()) return s;
  WF_RETURN_IF_ERROR(reopen);
  acked_bytes_ = file_.size();
  appended_records_ = 0;
  poisoned_ = false;
  return Status::Ok();
}

void WriteAheadLog::Close() {
  file_.Close();
  path_.clear();
  injector_ = nullptr;
  acked_bytes_ = 0;
  appended_records_ = 0;
  poisoned_ = false;
}

}  // namespace wf::platform
