#include "store/segment.h"

#include <algorithm>
#include <filesystem>

#include "common/durable_file.h"
#include "common/string_util.h"

namespace wf::store {

namespace {

constexpr uint32_t kSegmentVersion = 1;

common::Status CorruptSegment(const std::string& path,
                              const std::string& detail) {
  return common::Status::Corruption("segment " + path + ": " + detail);
}

}  // namespace

common::Status WriteSegmentFile(const std::string& path,
                                const std::vector<SegmentRecord>& records,
                                common::StorageFaultInjector* injector,
                                BloomFilter* bloom_out) {
  // The payload goes to disk as parts: every line the format adds lives
  // in `lines`, and keys and values are views of the caller's records, so
  // no contiguous copy of the run is ever built. Each record's header
  // line carries the previous record's terminator in front of it; the
  // line ends are recorded as offsets and turned into views once `lines`
  // stops growing.
  std::string lines = common::StrFormat("wfseg 1 %zu\n", records.size());
  lines.reserve(lines.size() + records.size() * 32 + 1);
  std::vector<size_t> line_ends;
  line_ends.reserve(records.size() + 1);
  // Built alongside the payload so the flush path gets its filter for free
  // (the reopened reader rebuilds a bit-identical one from the key index).
  BloomFilter bloom(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const SegmentRecord& rec = records[i];
    if (i > 0 && !(records[i - 1].key < rec.key)) {
      return common::Status::InvalidArgument(
          "segment records not strictly sorted at key '" +
          std::string(rec.key) + "'");
    }
    bloom.Add(rec.key);
    if (i > 0) lines.push_back('\n');
    lines += common::StrFormat("r %zu %zu %d\n", rec.key.size(),
                               rec.value.size(), rec.tombstone ? 1 : 0);
    line_ends.push_back(lines.size());
  }
  if (!records.empty()) lines.push_back('\n');
  line_ends.push_back(lines.size());

  std::vector<std::string_view> parts;
  parts.reserve(3 * records.size() + 1);
  const std::string_view all = lines;
  size_t line_begin = 0;
  for (size_t i = 0; i < line_ends.size(); ++i) {
    parts.push_back(all.substr(line_begin, line_ends[i] - line_begin));
    line_begin = line_ends[i];
    if (i < records.size()) {
      parts.push_back(records[i].key);
      parts.push_back(records[i].value);
    }
  }
  WF_RETURN_IF_ERROR(common::WriteSnapshotFile(
      path, common::kSnapKindSegment, kSegmentVersion, parts, injector));
  if (bloom_out != nullptr) *bloom_out = std::move(bloom);
  return common::Status::Ok();
}

common::Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path) {
  WF_ASSIGN_OR_RETURN(
      std::string payload,
      common::ReadSnapshotFile(path, common::kSnapKindSegment,
                               kSegmentVersion));
  std::error_code ec;
  uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return common::Status::IOError("cannot stat segment: " + path);
  // Envelope header + payload is the whole file, so the payload starts at
  // file_bytes - payload_bytes; every in-payload offset shifts by that.
  const uint64_t payload_base = file_bytes - payload.size();

  auto reader = std::make_unique<SegmentReader>();
  reader->path_ = path;
  reader->file_bytes_ = file_bytes;

  const std::string_view body = payload;
  size_t pos = body.find('\n');
  if (pos == std::string_view::npos) {
    return CorruptSegment(path, "missing header line");
  }
  std::string_view head[3];
  uint64_t count = 0;
  if (!common::SplitInto(body.substr(0, pos), ' ', head) ||
      head[0] != "wfseg" || head[1] != "1") {
    return CorruptSegment(path, "bad header");
  }
  if (!common::ParseUint64(head[2], &count)) {
    return CorruptSegment(path, "bad record count");
  }
  ++pos;  // past the header newline

  // A count never exceeds the records (9 bytes at least) the payload holds.
  reader->entries_.reserve(std::min<uint64_t>(count, body.size() / 9));
  for (uint64_t i = 0; i < count; ++i) {
    const size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) {
      return CorruptSegment(path, "truncated record header");
    }
    std::string_view parts[4];
    if (!common::SplitInto(body.substr(pos, eol - pos), ' ', parts) ||
        parts[0] != "r") {
      return CorruptSegment(path, "bad record header");
    }
    uint64_t keylen = 0;
    if (!common::ParseUint64(parts[1], &keylen)) {
      return CorruptSegment(path, "bad key length");
    }
    uint64_t vallen = 0;
    if (!common::ParseUint64(parts[2], &vallen)) {
      return CorruptSegment(path, "bad value length");
    }
    if (parts[3] != "0" && parts[3] != "1") {
      return CorruptSegment(path, "bad tombstone flag");
    }
    const bool tombstone = parts[3] == "1";
    pos = eol + 1;
    if (keylen > body.size() || vallen > body.size() ||
        pos + keylen + vallen + 1 > body.size()) {
      return CorruptSegment(path, "truncated record body");
    }
    if (vallen > UINT32_MAX) return CorruptSegment(path, "value too long");
    Entry entry;
    entry.key = body.substr(pos, keylen);
    entry.value_offset = payload_base + pos + keylen;
    entry.value_len = static_cast<uint32_t>(vallen);
    entry.tombstone = tombstone;
    if (i > 0 && !(reader->entries_.back().key < entry.key)) {
      return CorruptSegment(path, "records out of order");
    }
    pos += keylen + vallen;
    if (body[pos] != '\n') {
      return CorruptSegment(path, "missing record terminator");
    }
    ++pos;
    reader->entries_.push_back(std::move(entry));
  }
  if (pos != payload.size()) {
    return CorruptSegment(path, "trailing bytes after last record");
  }
  reader->bloom_ = BloomFilter(reader->entries_.size());
  for (const Entry& e : reader->entries_) reader->bloom_.Add(e.key);
  return reader;
}

const SegmentReader::Entry* SegmentReader::Find(std::string_view key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::string_view k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) return nullptr;
  return &*it;
}

common::Result<std::string> SegmentReader::ReadValue(
    const Entry& entry) const {
  if (entry.value_len == 0) return std::string();
  if (!in_.is_open()) {
    in_.open(path_, std::ios::binary);
    if (!in_) {
      return common::Status::IOError("cannot open segment: " + path_);
    }
  }
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(entry.value_offset));
  std::string value(entry.value_len, '\0');
  in_.read(value.data(), static_cast<std::streamsize>(entry.value_len));
  if (!in_) {
    return common::Status::IOError("short read from segment: " + path_);
  }
  return value;
}

}  // namespace wf::store
