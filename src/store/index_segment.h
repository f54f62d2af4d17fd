#ifndef WF_STORE_INDEX_SEGMENT_H_
#define WF_STORE_INDEX_SEGMENT_H_

#include <cstdint>
#include <fstream>  // std::ifstream reads only; writes go through DurableFile
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "store/varint.h"

namespace wf::common {
class StorageFaultInjector;
}  // namespace wf::common

namespace wf::store {

// An immutable frozen tier of an inverted index: the posting-list sibling
// of the key/value segment. On disk it is a `wfsnap indexseg 1` envelope
// whose payload holds a sorted doc table, a sorted term dictionary with
// varint delta-compressed posting blocks, and the numeric field entries:
//
//   wfpost 1 <ndocs> <nterms> <nfield-lines>\n
//   d 1 <escaped-doc-id>\n                       (ndocs, sorted by id)
//   t <escaped-term> <block-bytes>\n<block>\n    (nterms, sorted by term)
//   f <escaped-field> <value> <doc-ord>\n        (field lines, sorted)
//
// A line's pieces are separated by exactly one space, and an escaped doc
// id, term or field name may be empty (`t  <block-bytes>`); the reader
// keeps the empty piece.
//
// A posting block is varint-coded: doc count, then per doc its ordinal
// delta, position count, and position deltas — small and cheap to skip.
// Doc ordinals are positions in this segment's own sorted doc table; the
// writer refuses, and the reader rejects as Corruption, an ordinal past it.
//
// Every doc in a segment is a whole version: all of the entity's postings
// and field values. The newest tier holding a doc owns it and shadows
// every older one. The `1` on a doc line is that whole-version mark; the
// reader rejects any other value.
//
// The payload is a pure function of the logical content (docs sorted,
// terms sorted, postings in ordinal order), so equal logical tiers freeze
// to byte-identical files — the determinism contract of DESIGN.md §13.

// The per-posting codec of a block, shared by the run writer, the run
// reader and the index's delta tier, which holds its postings in this
// encoding between checkpoints. A posting is its ordinal's delta from the
// previous posting's (the ordinal itself for a block's first), its
// position count, and its positions as deltas (the first as is). Inline:
// the reader's check at open and the delta's walks call it per posting.
//
// Appends one posting to *block.
inline void PutPosting(uint32_t ord_delta,
                       std::span<const uint32_t> positions,
                       std::string* block) {
  PutVarint(ord_delta, block);
  PutVarint(positions.size(), block);
  uint32_t prev = 0;
  for (uint32_t position : positions) {
    PutVarint(position - prev, block);
    prev = position;
  }
}

// Reads the posting at *pos, advancing *pos past it: its ordinal delta,
// and its positions appended to *positions (only checked when null).
// False when the bytes at *pos do not hold a whole posting.
inline bool GetPosting(std::string_view block, size_t* pos,
                       uint64_t* ord_delta, std::vector<uint32_t>* positions) {
  size_t at = *pos;
  uint64_t npos = 0;
  // Every position takes a byte at least.
  if (!GetVarint(block, &at, ord_delta) || !GetVarint(block, &at, &npos) ||
      npos > block.size() - at) {
    return false;
  }
  if (positions != nullptr) positions->reserve(positions->size() + npos);
  uint64_t position = 0;
  for (uint64_t j = 0; j < npos; ++j) {
    uint64_t delta = 0;
    if (!GetVarint(block, &at, &delta)) return false;
    position += delta;
    if (positions != nullptr) {
      positions->push_back(static_cast<uint32_t>(position));
    }
  }
  *pos = at;
  return true;
}

struct TermPostings {
  uint32_t doc_ord = 0;
  std::vector<uint32_t> positions;  // ascending; empty = concept token
};

struct FieldValueEntry {
  double value = 0.0;
  uint32_t doc_ord = 0;
};

// The one way an index run reaches disk, for a freeze and a compaction
// alike. The caller streams the run in file order — every doc, then term
// by term, then field by field — and the writer encodes each piece as it
// arrives, so it holds the encoded run plus one term's block, never the
// run's postings. The count line that heads the payload is written last.
//
// Misuse (docs or terms or fields out of order, a posting or value naming
// an ordinal past the doc table, a doc after a term) is remembered, and
// WriteTo returns it as InvalidArgument without touching the disk.
class IndexRunWriter {
 public:
  struct Posting {
    uint32_t doc_ord = 0;
    std::span<const uint32_t> positions;  // ascending; empty = concept token
  };

  // The next doc of the table; ids strictly ascending.
  void AddDoc(std::string_view id);
  // The next term; terms strictly ascending, postings by strictly
  // ascending ordinal. A term with no posting is not written.
  void AddTerm(std::string_view term, std::span<const Posting> postings);
  // The next field; fields strictly ascending, values by ordinal.
  void AddField(std::string_view field,
                std::span<const FieldValueEntry> values);
  // Writes the run file at `path` under the checksummed envelope.
  common::Status WriteTo(const std::string& path,
                         common::StorageFaultInjector* injector);

 private:
  void Fail(const std::string& message);
  // Appends to the encoded payload, which grows in fixed-size chunks.
  void Emit(std::string_view bytes);

  enum class Section { kDocs, kTerms, kFields };

  common::Status status_;
  Section section_ = Section::kDocs;
  size_t ndocs_ = 0;
  size_t nterms_ = 0;
  size_t nfield_lines_ = 0;
  std::string last_doc_;
  std::string last_term_;
  std::string last_field_;
  std::string line_;   // one line being formatted
  std::string block_;  // one term's block, less its leading doc count
  std::vector<std::string> chunks_;
};

// Read handle: Open() verifies the envelope once and keeps the doc table,
// term dictionary (term + block offset) and field entries in memory;
// posting blocks are decoded lazily per term. Not thread-safe — the
// owning index serializes access.
class IndexSegmentReader {
 public:
  struct TermEntry {
    std::string term;
    uint64_t block_offset = 0;  // absolute file offset of the block
    uint32_t block_len = 0;
  };

  // Reads and parses the file, and decodes every posting block once to
  // check it: Corruption when the envelope does not verify, a line does
  // not parse, or a posting names a doc past the table.
  static common::Result<std::unique_ptr<IndexSegmentReader>> Open(
      const std::string& path);

  // Public only so Open can make_unique; use Open().
  IndexSegmentReader() = default;
  IndexSegmentReader(const IndexSegmentReader&) = delete;
  IndexSegmentReader& operator=(const IndexSegmentReader&) = delete;

  const std::vector<std::string>& docs() const { return docs_; }
  // -1 when the doc is not in this segment, else its ordinal.
  int FindDoc(std::string_view id) const;

  const std::vector<TermEntry>& terms() const { return terms_; }
  const TermEntry* FindTerm(std::string_view term) const;
  // Decodes one term's postings (segment-local doc ordinals). Corruption
  // when an ordinal is past the doc table.
  common::Result<std::vector<TermPostings>> Postings(
      const TermEntry& entry) const;

  const std::map<std::string, std::vector<FieldValueEntry>>& fields() const {
    return fields_;
  }

  const std::string& path() const { return path_; }
  uint64_t file_bytes() const { return file_bytes_; }
  // Docs in the doc table: the run's record count in the manifest.
  size_t record_count() const { return docs_.size(); }

 private:
  std::string path_;
  uint64_t file_bytes_ = 0;
  std::vector<std::string> docs_;
  std::vector<TermEntry> terms_;
  std::map<std::string, std::vector<FieldValueEntry>> fields_;
  mutable std::ifstream in_;
};

// Compaction's merge, a SegmentStack MergeFn: writes the runs `inputs`
// (age-contiguous, oldest first) as one run at `path`. The doc tables and
// the term dictionaries merge k-way; a doc keeps only the version of the
// newest input holding it, with its ordinals remapped into the merged doc
// table, and a term left with no posting is dropped. Postings are decoded
// and re-encoded one term at a time. `includes_oldest` does not matter:
// an index run has no tombstones.
common::Status WriteMergedIndexRun(
    std::span<const std::unique_ptr<IndexSegmentReader>> inputs,
    bool includes_oldest, const std::string& path,
    common::StorageFaultInjector* injector);

// Percent-escaping shared by the index segment format (space, newline,
// '%' — keeps every token single-line and single-word).
std::string EscapeIndexToken(std::string_view raw);
std::string UnescapeIndexToken(std::string_view escaped);

}  // namespace wf::store

#endif  // WF_STORE_INDEX_SEGMENT_H_
