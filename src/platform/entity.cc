#include "platform/entity.h"

#include <sstream>

#include "store/varint.h"

namespace wf::platform {

namespace {

using ::wf::common::Status;

// The binary record (DESIGN.md §13):
//
//   format byte, id, source,
//   field count, then per field: name, value
//   layer count, then per layer: name, span count, then per span:
//     begin, length, attribute count, then per attribute: key, value'
//   concept-token count, then per token: the token
//
// Every count and length is a varint; a string is its length, then its
// bytes. value' is 0 for "the span's own body text" (a back-reference),
// else the value's length + 1, then its bytes. A span's length is
// end - begin modulo 2^64, so even a span ending before it begins comes
// back exactly.
constexpr char kRecordFormat = '\x01';  // a text record starts with 'i'
constexpr uint64_t kBodyReference = 0;
static_assert(sizeof(size_t) == sizeof(uint64_t));

void PutString(std::string_view s, std::string* out) {
  store::PutVarint(s.size(), out);
  out->append(s);
}

// Reads a record's varints and strings front to back; every read fails on
// a short record.
class RecordReader {
 public:
  explicit RecordReader(std::string_view record) : data_(record) {}

  bool Varint(uint64_t* v) { return store::GetVarint(data_, &pos_, v); }
  // A count of elements that take a byte each at least, so a count past
  // the bytes left is a bad record, not a huge reservation.
  bool Count(uint64_t* n) { return Varint(n) && *n <= left(); }
  bool Bytes(uint64_t n, std::string* out) {
    if (n > left()) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    uint64_t n = 0;
    return Varint(&n) && Bytes(n, out);
  }
  size_t left() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 1;  // past the format byte
};

// Appends to a map the record lists in strictly ascending key order;
// false for a key that is not past the map's last.
template <typename Map>
bool AppendInOrder(Map* map, std::string key,
                   typename Map::mapped_type value) {
  if (!map->empty() && !(map->rbegin()->first < key)) return false;
  map->emplace_hint(map->end(), std::move(key), std::move(value));
  return true;
}

// Escapes newlines and backslashes so every record stays line-oriented.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

const std::string& Entity::GetField(const std::string& name) const {
  static const std::string* kEmpty = new std::string();
  auto it = fields_.find(name);
  return it == fields_.end() ? *kEmpty : it->second;
}

const std::vector<AnnotationSpan>* Entity::GetAnnotations(
    const std::string& layer) const {
  auto it = annotations_.find(layer);
  return it == annotations_.end() ? nullptr : &it->second;
}

std::string Entity::Serialize() const {
  std::ostringstream out;
  out << "id\t" << Escape(id_) << "\n";
  out << "source\t" << Escape(source_) << "\n";
  for (const auto& [name, value] : fields_) {
    out << "field\t" << Escape(name) << "\t" << Escape(value) << "\n";
  }
  for (const auto& [layer, spans] : annotations_) {
    for (const AnnotationSpan& span : spans) {
      out << "ann\t" << Escape(layer) << "\t" << span.begin << "\t"
          << span.end;
      for (const auto& [k, v] : span.attrs) {
        out << "\t" << Escape(k) << "=" << Escape(v);
      }
      out << "\n";
    }
  }
  for (const std::string& token : concept_tokens_) {
    out << "concept\t" << Escape(token) << "\n";
  }
  return out.str();
}

std::string Entity::EncodeRecord() const {
  const std::string& body = this->body();
  std::string out;
  size_t estimate = 16 + id_.size() + source_.size();
  for (const auto& [name, value] : fields_) {
    estimate += name.size() + value.size() + 4;
  }
  out.reserve(estimate + 64 * annotations_.size());
  out.push_back(kRecordFormat);
  PutString(id_, &out);
  PutString(source_, &out);
  store::PutVarint(fields_.size(), &out);
  for (const auto& [name, value] : fields_) {
    PutString(name, &out);
    PutString(value, &out);
  }
  store::PutVarint(annotations_.size(), &out);
  for (const auto& [layer, spans] : annotations_) {
    PutString(layer, &out);
    store::PutVarint(spans.size(), &out);
    for (const AnnotationSpan& span : spans) {
      const uint64_t length = span.end - span.begin;
      store::PutVarint(span.begin, &out);
      store::PutVarint(length, &out);
      const bool in_body = span.begin <= span.end && span.end <= body.size();
      const std::string_view text =
          in_body ? std::string_view(body).substr(span.begin, length)
                  : std::string_view();
      store::PutVarint(span.attrs.size(), &out);
      for (const auto& [key, value] : span.attrs) {
        PutString(key, &out);
        if (in_body && value == text) {
          store::PutVarint(kBodyReference, &out);
        } else {
          store::PutVarint(value.size() + 1, &out);
          out.append(value);
        }
      }
    }
  }
  store::PutVarint(concept_tokens_.size(), &out);
  for (const std::string& token : concept_tokens_) PutString(token, &out);
  return out;
}

common::Result<Entity> Entity::DecodeRecord(std::string_view record) {
  auto bad = [](const char* why) {
    return Status::Corruption(std::string("entity record: ") + why);
  };
  if (record.empty() || record[0] != kRecordFormat) {
    return bad("unknown format");
  }
  RecordReader in(record);
  Entity e;
  uint64_t nfields = 0;
  if (!in.String(&e.id_) || !in.String(&e.source_) || !in.Count(&nfields)) {
    return bad("truncated header");
  }
  for (uint64_t i = 0; i < nfields; ++i) {
    std::string name;
    std::string value;
    if (!in.String(&name) || !in.String(&value)) {
      return bad("truncated field");
    }
    if (!AppendInOrder(&e.fields_, std::move(name), std::move(value))) {
      return bad("fields out of order");
    }
  }
  const std::string& body = e.body();
  uint64_t nlayers = 0;
  if (!in.Count(&nlayers)) return bad("truncated layer count");
  for (uint64_t l = 0; l < nlayers; ++l) {
    std::string layer;
    uint64_t nspans = 0;
    if (!in.String(&layer) || !in.Count(&nspans)) {
      return bad("truncated layer");
    }
    if (!AppendInOrder(&e.annotations_, std::move(layer), {})) {
      return bad("layers out of order");
    }
    std::vector<AnnotationSpan>& spans = e.annotations_.rbegin()->second;
    spans.resize(nspans);
    for (AnnotationSpan& span : spans) {
      uint64_t length = 0;
      uint64_t nattrs = 0;
      if (!in.Varint(&span.begin) || !in.Varint(&length) ||
          !in.Count(&nattrs)) {
        return bad("truncated span");
      }
      span.end = span.begin + length;
      for (uint64_t a = 0; a < nattrs; ++a) {
        std::string key;
        std::string value;
        uint64_t tag = 0;
        if (!in.String(&key) || !in.Varint(&tag)) {
          return bad("truncated attribute");
        }
        if (tag == kBodyReference) {
          if (span.begin > body.size() || length > body.size() - span.begin) {
            return bad("reference past the body");
          }
          value.assign(body, span.begin, length);
        } else if (!in.Bytes(tag - 1, &value)) {
          return bad("truncated attribute value");
        }
        if (!AppendInOrder(&span.attrs, std::move(key), std::move(value))) {
          return bad("attributes out of order");
        }
      }
    }
  }
  uint64_t ntokens = 0;
  if (!in.Count(&ntokens)) return bad("truncated concept count");
  e.concept_tokens_.resize(ntokens);
  for (std::string& token : e.concept_tokens_) {
    if (!in.String(&token)) return bad("truncated concept token");
  }
  if (in.left() != 0) return bad("trailing bytes");
  return e;
}

}  // namespace wf::platform
