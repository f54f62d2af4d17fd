#include "store/index_segment.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "common/durable_file.h"
#include "common/string_util.h"
#include "store/merge.h"
#include "store/varint.h"

namespace wf::store {

namespace {

constexpr uint32_t kIndexSegmentVersion = 1;

common::Status CorruptIndexSegment(const std::string& path,
                                   const std::string& detail) {
  return common::Status::Corruption("index segment " + path + ": " + detail);
}

// Decodes a posting block into `out`, or only checks it when `out` is
// null. Corruption on a malformed block or an ordinal past the doc table.
common::Status DecodePostingBlock(std::string_view block,
                                  size_t ndocs_in_segment,
                                  const std::string& path,
                                  std::vector<TermPostings>* out) {
  size_t pos = 0;
  uint64_t ndocs = 0;
  if (!GetVarint(block, &pos, &ndocs)) {
    return CorruptIndexSegment(path, "bad posting block doc count");
  }
  if (out != nullptr) out->reserve(std::min<uint64_t>(ndocs, block.size()));
  uint64_t ord = 0;
  for (uint64_t i = 0; i < ndocs; ++i) {
    TermPostings* p = out != nullptr ? &out->emplace_back() : nullptr;
    uint64_t delta = 0;
    if (!GetPosting(block, &pos, &delta,
                    p != nullptr ? &p->positions : nullptr)) {
      return CorruptIndexSegment(path, "bad posting in block");
    }
    ord += delta;
    if (ord >= ndocs_in_segment) {
      return CorruptIndexSegment(path, "bad posting doc ordinal");
    }
    if (p != nullptr) p->doc_ord = static_cast<uint32_t>(ord);
  }
  if (pos != block.size()) {
    return CorruptIndexSegment(path, "trailing bytes in posting block");
  }
  return common::Status::Ok();
}

// Appends `raw` to *out, percent-escaping space, CR, LF, tab and '%'.
void EscapeInto(std::string_view raw, std::string* out) {
  for (char c : raw) {
    switch (c) {
      case '%':
        *out += "%25";
        break;
      case ' ':
        *out += "%20";
        break;
      case '\n':
        *out += "%0A";
        break;
      case '\r':
        *out += "%0D";
        break;
      case '\t':
        *out += "%09";
        break;
      default:
        out->push_back(c);
    }
  }
}

bool ParseDouble(std::string_view s, double* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

std::string EscapeIndexToken(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  EscapeInto(raw, &out);
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

void IndexRunWriter::Fail(const std::string& message) {
  if (status_.ok()) status_ = common::Status::InvalidArgument(message);
}

void IndexRunWriter::Emit(std::string_view bytes) {
  constexpr size_t kChunkBytes = 64 << 10;
  if (chunks_.empty() ||
      chunks_.back().size() + bytes.size() > chunks_.back().capacity()) {
    chunks_.emplace_back().reserve(std::max(kChunkBytes, bytes.size()));
  }
  chunks_.back().append(bytes);
}

void IndexRunWriter::AddDoc(std::string_view id) {
  if (!status_.ok()) return;
  if (section_ != Section::kDocs) {
    return Fail("index run doc after its terms or fields");
  }
  if (ndocs_ > 0 && !(last_doc_ < id)) {
    return Fail("index run docs not strictly sorted at '" + std::string(id) +
                "'");
  }
  last_doc_.assign(id);
  line_ = "d 1 ";
  EscapeInto(id, &line_);
  line_.push_back('\n');
  Emit(line_);
  ++ndocs_;
}

void IndexRunWriter::AddTerm(std::string_view term,
                             std::span<const Posting> postings) {
  if (!status_.ok()) return;
  if (section_ == Section::kFields) {
    return Fail("index run term after its fields");
  }
  if (section_ == Section::kTerms && !(last_term_ < term)) {
    return Fail("index run terms not strictly sorted at '" +
                std::string(term) + "'");
  }
  section_ = Section::kTerms;
  last_term_.assign(term);
  if (postings.empty()) return;
  block_.clear();
  for (size_t i = 0; i < postings.size(); ++i) {
    const Posting& p = postings[i];
    if (p.doc_ord >= ndocs_) {
      return Fail("index run posting of '" + std::string(term) +
                  "' names no doc");
    }
    if (i > 0 && p.doc_ord <= postings[i - 1].doc_ord) {
      return Fail("index run postings of '" + std::string(term) +
                  "' not in ordinal order");
    }
    PutPosting(i == 0 ? p.doc_ord : p.doc_ord - postings[i - 1].doc_ord,
               p.positions, &block_);
  }
  std::string count;
  PutVarint(postings.size(), &count);
  line_ = "t ";
  EscapeInto(term, &line_);
  line_ += ' ';
  line_ += std::to_string(count.size() + block_.size());
  line_.push_back('\n');
  Emit(line_);
  Emit(count);
  Emit(block_);
  Emit("\n");
  ++nterms_;
}

void IndexRunWriter::AddField(std::string_view field,
                              std::span<const FieldValueEntry> values) {
  if (!status_.ok()) return;
  if (section_ == Section::kFields && !(last_field_ < field)) {
    return Fail("index run fields not strictly sorted at '" +
                std::string(field) + "'");
  }
  section_ = Section::kFields;
  last_field_.assign(field);
  std::string escaped;
  EscapeInto(field, &escaped);
  for (size_t i = 0; i < values.size(); ++i) {
    const FieldValueEntry& entry = values[i];
    if (entry.doc_ord >= ndocs_) {
      return Fail("index run value of field '" + std::string(field) +
                  "' names no doc");
    }
    if (i > 0 && entry.doc_ord < values[i - 1].doc_ord) {
      return Fail("index run values of field '" + std::string(field) +
                  "' not in ordinal order");
    }
    line_ = "f " + escaped;
    line_ += common::StrFormat(" %.17g %u\n", entry.value, entry.doc_ord);
    Emit(line_);
    ++nfield_lines_;
  }
}

common::Status IndexRunWriter::WriteTo(
    const std::string& path, common::StorageFaultInjector* injector) {
  WF_RETURN_IF_ERROR(status_);
  const std::string head = common::StrFormat(
      "wfpost 1 %zu %zu %zu\n", ndocs_, nterms_, nfield_lines_);
  std::vector<std::string_view> parts;
  parts.reserve(chunks_.size() + 1);
  parts.push_back(head);
  parts.insert(parts.end(), chunks_.begin(), chunks_.end());
  return common::WriteSnapshotFile(path, common::kSnapKindIndexSegment,
                                   kIndexSegmentVersion, parts, injector);
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

  const std::string_view body = payload;
  size_t pos = body.find('\n');
  if (pos == std::string_view::npos) {
    return CorruptIndexSegment(path, "missing header line");
  }
  std::string_view head[5];
  if (!common::SplitExactInto(body.substr(0, pos), ' ', head) ||
      head[0] != "wfpost" || head[1] != "1") {
    return CorruptIndexSegment(path, "bad header");
  }
  uint64_t ndocs = 0;
  if (!common::ParseUint64(head[2], &ndocs)) {
    return CorruptIndexSegment(path, "bad doc count");
  }
  uint64_t nterms = 0;
  if (!common::ParseUint64(head[3], &nterms)) {
    return CorruptIndexSegment(path, "bad term count");
  }
  uint64_t nfields = 0;
  if (!common::ParseUint64(head[4], &nfields)) {
    return CorruptIndexSegment(path, "bad field count");
  }
  ++pos;

  // A count never exceeds the lines that could hold it.
  reader->docs_.reserve(std::min<uint64_t>(ndocs, body.size()));
  for (uint64_t i = 0; i < ndocs; ++i) {
    const size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) {
      return CorruptIndexSegment(path, "truncated doc line");
    }
    std::string_view parts[3];
    if (!common::SplitExactInto(body.substr(pos, eol - pos), ' ', parts) ||
        parts[0] != "d" || parts[1] != "1") {
      return CorruptIndexSegment(path, "bad doc line");
    }
    std::string doc = UnescapeIndexToken(parts[2]);
    if (i > 0 && !(reader->docs_.back() < doc)) {
      return CorruptIndexSegment(path, "docs out of order");
    }
    reader->docs_.push_back(std::move(doc));
    pos = eol + 1;
  }

  reader->terms_.reserve(std::min<uint64_t>(nterms, body.size()));
  for (uint64_t i = 0; i < nterms; ++i) {
    const size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) {
      return CorruptIndexSegment(path, "truncated term line");
    }
    std::string_view parts[3];
    if (!common::SplitExactInto(body.substr(pos, eol - pos), ' ', parts) ||
        parts[0] != "t") {
      return CorruptIndexSegment(path, "bad term line");
    }
    TermEntry entry;
    entry.term = UnescapeIndexToken(parts[1]);
    uint64_t block_len = 0;
    if (!common::ParseUint64(parts[2], &block_len)) {
      return CorruptIndexSegment(path, "bad term block length");
    }
    pos = eol + 1;
    if (block_len >= body.size() - pos) {
      return CorruptIndexSegment(path, "truncated term block");
    }
    if (block_len > UINT32_MAX) {
      return CorruptIndexSegment(path, "term block too long");
    }
    entry.block_offset = payload_base + pos;
    entry.block_len = static_cast<uint32_t>(block_len);
    if (i > 0 && !(reader->terms_.back().term < entry.term)) {
      return CorruptIndexSegment(path, "terms out of order");
    }
    // Every block is decoded once here, so no later read of a posting
    // meets a malformed block or an ordinal past the doc table.
    WF_RETURN_IF_ERROR(DecodePostingBlock(body.substr(pos, block_len),
                                          reader->docs_.size(), path,
                                          /*out=*/nullptr));
    pos += block_len;
    if (body[pos] != '\n') {
      return CorruptIndexSegment(path, "missing term block terminator");
    }
    ++pos;
    reader->terms_.push_back(std::move(entry));
  }

  for (uint64_t i = 0; i < nfields; ++i) {
    const size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) {
      return CorruptIndexSegment(path, "truncated field line");
    }
    std::string_view parts[4];
    if (!common::SplitExactInto(body.substr(pos, eol - pos), ' ', parts) ||
        parts[0] != "f") {
      return CorruptIndexSegment(path, "bad field line");
    }
    FieldValueEntry entry;
    if (!ParseDouble(parts[2], &entry.value)) {
      return CorruptIndexSegment(path, "bad field value");
    }
    uint64_t ord = 0;
    if (!common::ParseUint64(parts[3], &ord) || ord >= reader->docs_.size()) {
      return CorruptIndexSegment(path, "bad field doc ordinal");
    }
    entry.doc_ord = static_cast<uint32_t>(ord);
    reader->fields_[UnescapeIndexToken(parts[1])].push_back(entry);
    pos = eol + 1;
  }
  if (pos != body.size()) {
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
  std::vector<TermPostings> postings;
  WF_RETURN_IF_ERROR(DecodePostingBlock(block, docs_.size(), path_, &postings));
  return postings;
}

common::Status WriteMergedIndexRun(
    std::span<const std::unique_ptr<IndexSegmentReader>> inputs,
    bool /*includes_oldest*/, const std::string& path,
    common::StorageFaultInjector* injector) {
  IndexRunWriter writer;
  // remap[t][ord]: the merged ordinal of input t's doc, or kShadowed when a
  // newer input holds the doc too.
  constexpr uint32_t kShadowed = UINT32_MAX;
  std::vector<std::vector<uint32_t>> remap(inputs.size());
  std::vector<size_t> ndocs(inputs.size());
  std::vector<size_t> nterms(inputs.size());
  for (size_t t = 0; t < inputs.size(); ++t) {
    ndocs[t] = inputs[t]->docs().size();
    nterms[t] = inputs[t]->terms().size();
    remap[t].assign(ndocs[t], kShadowed);
  }
  uint32_t merged = 0;
  WF_RETURN_IF_ERROR(MergeSorted(
      ndocs,
      [&inputs](size_t t, size_t i) -> std::string_view {
        return inputs[t]->docs()[i];
      },
      [&](std::string_view doc,
          std::span<const size_t> at) -> common::Status {
        const size_t owner = Newest(at);
        remap[owner][at[owner]] = merged++;
        writer.AddDoc(doc);
        return common::Status::Ok();
      }));

  // One term at a time: decode each input's block, keep the owners'
  // postings, and restore ordinal order (each input's survivors are
  // already ascending; ordinals are unique across inputs).
  std::vector<IndexRunWriter::Posting> postings;
  WF_RETURN_IF_ERROR(MergeSorted(
      nterms,
      [&inputs](size_t t, size_t i) -> std::string_view {
        return inputs[t]->terms()[i].term;
      },
      [&](std::string_view term,
          std::span<const size_t> at) -> common::Status {
        std::vector<std::vector<TermPostings>> decoded(inputs.size());
        postings.clear();
        for (size_t t = 0; t < at.size(); ++t) {
          if (at[t] == kAbsent) continue;
          WF_ASSIGN_OR_RETURN(decoded[t],
                              inputs[t]->Postings(inputs[t]->terms()[at[t]]));
          for (const TermPostings& p : decoded[t]) {
            const uint32_t ord = remap[t][p.doc_ord];
            if (ord != kShadowed) postings.push_back({ord, p.positions});
          }
        }
        std::sort(postings.begin(), postings.end(),
                  [](const auto& a, const auto& b) {
                    return a.doc_ord < b.doc_ord;
                  });
        writer.AddTerm(term, postings);
        return common::Status::Ok();
      }));

  std::set<std::string> fields;
  for (const std::unique_ptr<IndexSegmentReader>& input : inputs) {
    for (const auto& [field, values] : input->fields()) fields.insert(field);
  }
  std::vector<FieldValueEntry> values;
  for (const std::string& field : fields) {
    values.clear();
    for (size_t t = 0; t < inputs.size(); ++t) {
      auto it = inputs[t]->fields().find(field);
      if (it == inputs[t]->fields().end()) continue;
      for (const FieldValueEntry& entry : it->second) {
        const uint32_t ord = remap[t][entry.doc_ord];
        if (ord != kShadowed) values.push_back({entry.value, ord});
      }
    }
    // A doc's values all come from its owner, in file order; the stable
    // sort keeps that order among them.
    std::stable_sort(values.begin(), values.end(),
                     [](const FieldValueEntry& a, const FieldValueEntry& b) {
                       return a.doc_ord < b.doc_ord;
                     });
    writer.AddField(field, values);
  }
  return writer.WriteTo(path, injector);
}

}  // namespace wf::store
