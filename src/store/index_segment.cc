#include "store/index_segment.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>

#include "common/durable_file.h"
#include "common/string_util.h"
#include "store/varint.h"

namespace wf::store {

namespace {

constexpr uint32_t kIndexSegmentVersion = 1;

common::Status CorruptIndexSegment(const std::string& path,
                                   const std::string& detail) {
  return common::Status::Corruption("index segment " + path + ": " + detail);
}

std::string EncodePostingBlock(const std::vector<TermPostings>& postings) {
  std::string block;
  PutVarint(postings.size(), &block);
  uint32_t prev_ord = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    const TermPostings& p = postings[i];
    PutVarint(i == 0 ? p.doc_ord : p.doc_ord - prev_ord, &block);
    prev_ord = p.doc_ord;
    PutVarint(p.positions.size(), &block);
    uint32_t prev_pos = 0;
    for (size_t j = 0; j < p.positions.size(); ++j) {
      PutVarint(j == 0 ? p.positions[j] : p.positions[j] - prev_pos, &block);
      prev_pos = p.positions[j];
    }
  }
  return block;
}

common::Result<std::vector<TermPostings>> DecodePostingBlock(
    std::string_view block, size_t ndocs_in_segment, const std::string& path) {
  std::vector<TermPostings> postings;
  size_t pos = 0;
  uint64_t ndocs = 0;
  if (!GetVarint(block, &pos, &ndocs)) {
    return CorruptIndexSegment(path, "bad posting block doc count");
  }
  postings.reserve(ndocs);
  uint64_t ord = 0;
  for (uint64_t i = 0; i < ndocs; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(block, &pos, &delta)) {
      return CorruptIndexSegment(path, "bad posting block ord delta");
    }
    ord = i == 0 ? delta : ord + delta;
    if (ord >= ndocs_in_segment) {
      return CorruptIndexSegment(path, "bad posting doc ordinal");
    }
    TermPostings p;
    p.doc_ord = static_cast<uint32_t>(ord);
    uint64_t npos = 0;
    if (!GetVarint(block, &pos, &npos)) {
      return CorruptIndexSegment(path, "bad posting block position count");
    }
    p.positions.reserve(npos);
    uint64_t position = 0;
    for (uint64_t j = 0; j < npos; ++j) {
      uint64_t pdelta = 0;
      if (!GetVarint(block, &pos, &pdelta)) {
        return CorruptIndexSegment(path, "bad posting block position delta");
      }
      position = j == 0 ? pdelta : position + pdelta;
      p.positions.push_back(static_cast<uint32_t>(position));
    }
    postings.push_back(std::move(p));
  }
  if (pos != block.size()) {
    return CorruptIndexSegment(path, "trailing bytes in posting block");
  }
  return postings;
}

}  // namespace

std::string EscapeIndexToken(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case ' ':
        out += "%20";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      case '\t':
        out += "%09";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeIndexToken(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      const std::string hex(escaped.substr(i + 1, 2));
      char* end = nullptr;
      long value = std::strtol(hex.c_str(), &end, 16);
      if (end != nullptr && *end == '\0') {
        out.push_back(static_cast<char>(value));
        i += 2;
        continue;
      }
    }
    out.push_back(escaped[i]);
  }
  return out;
}

common::Status WriteIndexSegmentFile(const std::string& path,
                                     const IndexSegmentData& data,
                                     common::StorageFaultInjector* injector,
                                     uint64_t* bytes_out) {
  size_t field_lines = 0;
  for (const auto& [field, entries] : data.fields) {
    field_lines += entries.size();
  }
  std::string payload =
      common::StrFormat("wfpost 1 %zu %zu %zu\n", data.docs.size(),
                        data.terms.size(), field_lines);
  for (size_t i = 0; i < data.docs.size(); ++i) {
    const std::string& doc = data.docs[i];
    if (i > 0 && !(data.docs[i - 1] < doc)) {
      return common::Status::InvalidArgument(
          "index segment docs not strictly sorted at '" + doc + "'");
    }
    payload += common::StrFormat("d 1 %s\n", EscapeIndexToken(doc).c_str());
  }
  for (const auto& [term, postings] : data.terms) {
    for (const TermPostings& p : postings) {
      if (p.doc_ord >= data.docs.size()) {
        return common::Status::InvalidArgument(
            "index segment posting of '" + term + "' names no doc");
      }
    }
    const std::string block = EncodePostingBlock(postings);
    payload += common::StrFormat("t %s %zu\n",
                                 EscapeIndexToken(term).c_str(), block.size());
    payload += block;
    payload.push_back('\n');
  }
  for (const auto& [field, entries] : data.fields) {
    for (const FieldValueEntry& entry : entries) {
      if (entry.doc_ord >= data.docs.size()) {
        return common::Status::InvalidArgument(
            "index segment value of field '" + field + "' names no doc");
      }
      payload += common::StrFormat("f %s %.17g %u\n",
                                   EscapeIndexToken(field).c_str(),
                                   entry.value, entry.doc_ord);
    }
  }
  WF_RETURN_IF_ERROR(common::WriteSnapshotFile(path,
                                               common::kSnapKindIndexSegment,
                                               kIndexSegmentVersion, payload,
                                               injector));
  if (bytes_out != nullptr) {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    *bytes_out = ec ? payload.size() : size;
  }
  return common::Status::Ok();
}

common::Result<std::unique_ptr<IndexSegmentReader>> IndexSegmentReader::Open(
    const std::string& path) {
  WF_ASSIGN_OR_RETURN(std::string payload, common::ReadSnapshotFile(
                                               path,
                                               common::kSnapKindIndexSegment,
                                               kIndexSegmentVersion));
  std::error_code ec;
  uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) {
    return common::Status::IOError("cannot stat index segment: " + path);
  }
  const uint64_t payload_base = file_bytes - payload.size();

  auto reader = std::make_unique<IndexSegmentReader>();
  reader->path_ = path;
  reader->file_bytes_ = file_bytes;

  size_t pos = payload.find('\n');
  if (pos == std::string::npos) {
    return CorruptIndexSegment(path, "missing header line");
  }
  std::vector<std::string> head = common::Split(payload.substr(0, pos), " ");
  if (head.size() != 5 || head[0] != "wfpost" || head[1] != "1") {
    return CorruptIndexSegment(path, "bad header");
  }
  char* end = nullptr;
  unsigned long long ndocs = std::strtoull(head[2].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return CorruptIndexSegment(path, "bad doc count");
  }
  unsigned long long nterms = std::strtoull(head[3].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return CorruptIndexSegment(path, "bad term count");
  }
  unsigned long long nfields = std::strtoull(head[4].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return CorruptIndexSegment(path, "bad field count");
  }
  ++pos;

  reader->docs_.reserve(ndocs);
  for (unsigned long long i = 0; i < ndocs; ++i) {
    size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) {
      return CorruptIndexSegment(path, "truncated doc line");
    }
    std::vector<std::string> parts =
        common::Split(payload.substr(pos, eol - pos), " ");
    if (parts.size() != 3 || parts[0] != "d" || parts[1] != "1") {
      return CorruptIndexSegment(path, "bad doc line");
    }
    std::string doc = UnescapeIndexToken(parts[2]);
    if (i > 0 && !(reader->docs_.back() < doc)) {
      return CorruptIndexSegment(path, "docs out of order");
    }
    reader->docs_.push_back(std::move(doc));
    pos = eol + 1;
  }

  reader->terms_.reserve(nterms);
  std::string prev_term;
  for (unsigned long long i = 0; i < nterms; ++i) {
    size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) {
      return CorruptIndexSegment(path, "truncated term line");
    }
    std::vector<std::string> parts =
        common::Split(payload.substr(pos, eol - pos), " ");
    if (parts.size() != 3 || parts[0] != "t") {
      return CorruptIndexSegment(path, "bad term line");
    }
    TermEntry entry;
    entry.term = UnescapeIndexToken(parts[1]);
    unsigned long long block_len = std::strtoull(parts[2].c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return CorruptIndexSegment(path, "bad term block length");
    }
    pos = eol + 1;
    if (pos + block_len + 1 > payload.size()) {
      return CorruptIndexSegment(path, "truncated term block");
    }
    entry.block_offset = payload_base + pos;
    entry.block_len = static_cast<uint32_t>(block_len);
    if (i > 0 && !(prev_term < entry.term)) {
      return CorruptIndexSegment(path, "terms out of order");
    }
    prev_term = entry.term;
    pos += block_len;
    if (payload[pos] != '\n') {
      return CorruptIndexSegment(path, "missing term block terminator");
    }
    ++pos;
    reader->terms_.push_back(std::move(entry));
  }

  for (unsigned long long i = 0; i < nfields; ++i) {
    size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) {
      return CorruptIndexSegment(path, "truncated field line");
    }
    std::vector<std::string> parts =
        common::Split(payload.substr(pos, eol - pos), " ");
    if (parts.size() != 4 || parts[0] != "f") {
      return CorruptIndexSegment(path, "bad field line");
    }
    FieldValueEntry entry;
    entry.value = std::strtod(parts[2].c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return CorruptIndexSegment(path, "bad field value");
    }
    unsigned long long ord = std::strtoull(parts[3].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || ord >= reader->docs_.size()) {
      return CorruptIndexSegment(path, "bad field doc ordinal");
    }
    entry.doc_ord = static_cast<uint32_t>(ord);
    reader->fields_[UnescapeIndexToken(parts[1])].push_back(entry);
    pos = eol + 1;
  }
  if (pos != payload.size()) {
    return CorruptIndexSegment(path, "trailing bytes after last field");
  }
  return reader;
}

int IndexSegmentReader::FindDoc(std::string_view id) const {
  auto it = std::lower_bound(docs_.begin(), docs_.end(), id);
  if (it == docs_.end() || *it != id) return -1;
  return static_cast<int>(it - docs_.begin());
}

const IndexSegmentReader::TermEntry* IndexSegmentReader::FindTerm(
    std::string_view term) const {
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), term,
      [](const TermEntry& e, std::string_view key) { return e.term < key; });
  if (it == terms_.end() || it->term != term) return nullptr;
  return &*it;
}

common::Result<std::vector<TermPostings>> IndexSegmentReader::Postings(
    const TermEntry& entry) const {
  if (!in_.is_open()) {
    in_.open(path_, std::ios::binary);
    if (!in_) {
      return common::Status::IOError("cannot open index segment: " + path_);
    }
  }
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(entry.block_offset));
  std::string block(entry.block_len, '\0');
  in_.read(block.data(), static_cast<std::streamsize>(entry.block_len));
  if (!in_) {
    return common::Status::IOError("short read from index segment: " + path_);
  }
  return DecodePostingBlock(block, docs_.size(), path_);
}

common::Result<IndexSegmentData> LoadIndexSegmentData(
    const IndexSegmentReader& reader) {
  IndexSegmentData data;
  data.docs = reader.docs();
  for (const IndexSegmentReader::TermEntry& entry : reader.terms()) {
    WF_ASSIGN_OR_RETURN(std::vector<TermPostings> postings,
                        reader.Postings(entry));
    data.terms[entry.term] = std::move(postings);
  }
  data.fields = reader.fields();
  return data;
}

IndexSegmentData MergeIndexSegments(
    const std::vector<IndexSegmentData>& tiers) {
  // The newest tier holding a doc owns it: doc -> (tier, ordinal there).
  std::map<std::string, std::pair<size_t, uint32_t>> owner;
  for (size_t t = 0; t < tiers.size(); ++t) {
    for (uint32_t ord = 0; ord < tiers[t].docs.size(); ++ord) {
      owner[tiers[t].docs[ord]] = {t, ord};
    }
  }
  // remap[t][ord]: the merged ordinal of tier t's doc, or kShadowed.
  constexpr uint32_t kShadowed = UINT32_MAX;
  std::vector<std::vector<uint32_t>> remap(tiers.size());
  for (size_t t = 0; t < tiers.size(); ++t) {
    remap[t].assign(tiers[t].docs.size(), kShadowed);
  }
  IndexSegmentData merged;
  merged.docs.reserve(owner.size());
  for (const auto& [doc, at] : owner) {
    remap[at.first][at.second] = static_cast<uint32_t>(merged.docs.size());
    merged.docs.push_back(doc);
  }

  // Copy the owners' entries, then restore ordinal order in each list.
  for (size_t t = 0; t < tiers.size(); ++t) {
    for (const auto& [term, postings] : tiers[t].terms) {
      for (const TermPostings& p : postings) {
        const uint32_t ord = remap[t][p.doc_ord];
        if (ord != kShadowed) {
          merged.terms[term].push_back(TermPostings{ord, p.positions});
        }
      }
    }
    for (const auto& [field, entries] : tiers[t].fields) {
      for (const FieldValueEntry& entry : entries) {
        const uint32_t ord = remap[t][entry.doc_ord];
        if (ord != kShadowed) {
          merged.fields[field].push_back(FieldValueEntry{entry.value, ord});
        }
      }
    }
  }
  // A doc's entries all come from its owner, in canonical order; the
  // stable sort keeps that order among them.
  const auto by_ord = [](const auto& a, const auto& b) {
    return a.doc_ord < b.doc_ord;
  };
  for (auto& [term, postings] : merged.terms) {
    std::stable_sort(postings.begin(), postings.end(), by_ord);
  }
  for (auto& [field, entries] : merged.fields) {
    std::stable_sort(entries.begin(), entries.end(), by_ord);
  }
  return merged;
}

}  // namespace wf::store
