#ifndef WF_PLATFORM_ENTITY_H_
#define WF_PLATFORM_ENTITY_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wf::platform {

// One annotated span over an entity's body, written by a miner. `attrs`
// carries miner-specific key/values ("polarity" = "+", "subject" = "NR70").
struct AnnotationSpan {
  size_t begin = 0;  // byte offsets into the "body" field
  size_t end = 0;
  std::map<std::string, std::string> attrs;

  friend bool operator==(const AnnotationSpan& a, const AnnotationSpan& b) {
    return a.begin == b.begin && a.end == b.end && a.attrs == b.attrs;
  }
};

// A WebFountain entity: "a referenceable unit of information such as a Web
// page" (§2). The paper's store keeps entities as XML; ours keeps typed
// fields plus named annotation layers that miners append to. Conceptual
// tokens (miner-produced index terms) live in `concept_tokens`.
//
// One exact encoding (decoding gives back an equal entity):
// EncodeRecord/DecodeRecord, a varint binary record, is how a node holds an
// entity, in its store (memtable and segment runs) and its WAL, and what it
// ships: the node/<i>/fetch reply carries the stored record as is. An
// attribute equal to its span's body text is written as a back-reference,
// not a copy (DESIGN.md §13). Serialize, line-oriented escaped text, is
// write-only: the DataStore::Save image the goldens hash. Nothing parses it.
class Entity {
 public:
  Entity() = default;
  Entity(std::string id, std::string source)
      : id_(std::move(id)), source_(std::move(source)) {}

  const std::string& id() const { return id_; }
  const std::string& source() const { return source_; }

  void SetField(const std::string& name, std::string value) {
    fields_[name] = std::move(value);
  }
  // Empty string when absent.
  const std::string& GetField(const std::string& name) const;
  bool HasField(const std::string& name) const {
    return fields_.count(name) > 0;
  }
  const std::map<std::string, std::string>& fields() const { return fields_; }

  // Body convenience accessors (the main text payload).
  void SetBody(std::string body) { SetField("body", std::move(body)); }
  const std::string& body() const { return GetField("body"); }

  void AddAnnotation(const std::string& layer, AnnotationSpan span) {
    annotations_[layer].push_back(std::move(span));
  }
  const std::vector<AnnotationSpan>* GetAnnotations(
      const std::string& layer) const;
  const std::map<std::string, std::vector<AnnotationSpan>>& annotations()
      const {
    return annotations_;
  }

  void AddConceptToken(std::string token) {
    concept_tokens_.push_back(std::move(token));
  }
  const std::vector<std::string>& concept_tokens() const {
    return concept_tokens_;
  }

  // The canonical text form, for the DataStore::Save image.
  std::string Serialize() const;

  // The binary record. DecodeRecord takes exactly what EncodeRecord
  // writes: Corruption for any other format byte, a short or overlong
  // record, keys out of order, or a back-reference past the body.
  std::string EncodeRecord() const;
  static common::Result<Entity> DecodeRecord(std::string_view record);
  // An alias of DecodeRecord, kept only because wfbench's traced
  // FetchShard calls it (ROADMAP item 9).
  static common::Result<Entity> Deserialize(const std::string& data) {
    return DecodeRecord(data);
  }

  friend bool operator==(const Entity& a, const Entity& b) {
    return a.id_ == b.id_ && a.source_ == b.source_ &&
           a.fields_ == b.fields_ && a.annotations_ == b.annotations_ &&
           a.concept_tokens_ == b.concept_tokens_;
  }

 private:
  std::string id_;
  std::string source_;
  std::map<std::string, std::string> fields_;
  std::map<std::string, std::vector<AnnotationSpan>> annotations_;
  std::vector<std::string> concept_tokens_;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_ENTITY_H_
