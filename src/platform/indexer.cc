#include "platform/indexer.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/timer.h"
#include "text/tokenizer.h"

namespace wf::platform {

using ::wf::common::ToLower;

namespace {

using ::wf::common::LowerInto;

}  // namespace

void InvertedIndex::AttachMetrics(const obs::MetricsRegistry* metrics) {
  common::MutexLock lock(mu_);
  frozen_.AttachMetrics(metrics, "index");
  metrics_ = metrics;
  frozen_segments_gauge_ = nullptr;
  delta_docs_gauge_ = nullptr;
  freezes_counter_ = nullptr;
  postings_scanned_counter_ = nullptr;
  freeze_us_ = nullptr;
  if (metrics_ == nullptr) return;
  frozen_segments_gauge_ = metrics_->GetGauge("index/frozen_segments");
  delta_docs_gauge_ = metrics_->GetGauge("index/delta_docs");
  freezes_counter_ = metrics_->GetCounter("index/freezes_total");
  postings_scanned_counter_ =
      metrics_->GetCounter("index/postings_scanned_total");
  freeze_us_ = metrics_->GetHistogram(
      "index/freeze_us", obs::DefaultLatencyBoundsUs(), /*timing=*/true);
}

common::Status InvertedIndex::EnableSegments(
    const std::string& dir, const std::string& base,
    common::StorageFaultInjector* injector, size_t compaction_fanout) {
  common::MutexLock lock(mu_);
  // Every list entry belongs to an interned doc.
  if (!docs_.empty()) {
    return common::Status::FailedPrecondition(
        "delta tier must be empty when opening index segments");
  }
  WF_RETURN_IF_ERROR(frozen_.Open(dir, base, compaction_fanout, injector));
  live_vocabulary_size_.reset();
  UpdateGaugesLocked();
  return common::Status::Ok();
}

bool InvertedIndex::segmented() const {
  common::MutexLock lock(mu_);
  return frozen_.is_open();
}

size_t InvertedIndex::frozen_segment_count() const {
  common::MutexLock lock(mu_);
  return frozen_.runs().size();
}

common::Status InvertedIndex::Freeze() {
  common::MutexLock lock(mu_);
  if (!frozen_.is_open()) {
    return common::Status::FailedPrecondition(
        "ephemeral index cannot freeze (EnableSegments first)");
  }
  WF_RETURN_IF_ERROR(FreezeLocked());
  common::Status compacted = frozen_.Compact(store::WriteMergedIndexRun);
  UpdateGaugesLocked();
  return compacted;
}

template <typename Entry>
void InvertedIndex::DeltaLists<Entry>::Push(typename Map::iterator list,
                                            Entry entry) {
  std::vector<Ref>& refs = forward[entry.doc];
  entry.slot = static_cast<uint32_t>(refs.size());
  refs.push_back(Ref{list, static_cast<uint32_t>(list->second.size())});
  list->second.push_back(entry);
}

template <typename Entry>
size_t InvertedIndex::DeltaLists<Entry>::Drop(uint32_t doc) {
  std::vector<Ref>& refs = forward[doc];
  for (const Ref& ref : refs) {
    std::vector<Entry>& list = ref.list->second;
    if (ref.at + 1 != list.size()) {
      // Swap-remove: the moved entry may be another of this doc's (a field
      // can hold several of its values), whose ref is then still ahead.
      Entry& moved = list[ref.at];
      moved = std::move(list.back());
      forward[moved.doc][moved.slot].at = ref.at;
    }
    list.pop_back();
    if (list.empty()) lists.erase(ref.list);
  }
  const size_t dropped = refs.size();
  refs.clear();
  return dropped;
}

uint32_t InvertedIndex::InternDoc(const std::string& doc_id) {
  auto it = doc_ids_.find(doc_id);
  if (it != doc_ids_.end()) return it->second;
  uint32_t ord = static_cast<uint32_t>(docs_.size());
  docs_.push_back(doc_id);
  doc_ids_.emplace(doc_id, ord);
  postings_.forward.emplace_back();
  fields_.forward.emplace_back();
  positions_.emplace_back();
  return ord;
}

void InvertedIndex::CountScanned(size_t entries) {
  if (entries > 0 && postings_scanned_counter_ != nullptr) {
    postings_scanned_counter_->Add(entries);
  }
}

std::span<const uint32_t> InvertedIndex::PositionsLocked(
    const Posting& p) const {
  return std::span<const uint32_t>(positions_[p.doc]).subspan(p.offset,
                                                              p.count);
}

void InvertedIndex::IndexEntity(const Entity& entity) {
  text::Tokenizer tokenizer;
  IndexEntity(entity, tokenizer.Tokenize(entity.body()));
}

void InvertedIndex::IndexEntity(const Entity& entity,
                                const text::TokenStream& tokens) {
  common::MutexLock lock(mu_);
  // The delta is the newest tier, so this version shadows every frozen one.
  uint32_t ord = InternDoc(entity.id());
  live_vocabulary_size_.reset();

  // Drop the doc's previous delta entries (a re-index); a doc new to the
  // delta has none.
  size_t scanned = postings_.Drop(ord) + fields_.Drop(ord);

  // Room for a posting per token, trimmed to fit once the doc is in: the
  // forward list lives as long as the doc stays in the delta.
  postings_.forward[ord].reserve(tokens.size() +
                                 entity.concept_tokens().size());

  // Pass 1: one posting per distinct term, counting its positions. This
  // call's postings sit last in their lists (the doc's old ones are gone),
  // so a repeated term finds its posting at the back.
  std::string lower;
  std::vector<Posting*> posting_at(tokens.size(), nullptr);
  for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
    if (tokens[pos].kind != text::TokenKind::kWord &&
        tokens[pos].kind != text::TokenKind::kNumber) {
      continue;
    }
    LowerInto(tokens[pos].text, &lower);
    auto list = postings_.lists.try_emplace(lower).first;
    scanned += list->second.empty() ? 0 : 1;
    if (list->second.empty() || list->second.back().doc != ord) {
      postings_.Push(list, Posting{.doc = ord});
    }
    posting_at[pos] = &list->second.back();
    ++posting_at[pos]->count;
  }
  // Pass 2: lay the positions out contiguously per posting in the doc's
  // positions_ array.
  uint32_t offset = 0;
  for (const auto& ref : postings_.forward[ord]) {
    Posting& p = ref.list->second[ref.at];
    p.offset = offset;
    offset += p.count;
    p.count = 0;  // refilled below
  }
  std::vector<uint32_t>& positions = positions_[ord];
  positions.assign(offset, 0);
  for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
    if (Posting* p = posting_at[pos]) positions[p->offset + p->count++] = pos;
  }
  for (const std::string& concept_token : entity.concept_tokens()) {
    LowerInto(concept_token, &lower);
    auto pit = postings_.lists.try_emplace(lower).first;
    // As above, a duplicate can only be the list's last posting.
    if (!pit->second.empty()) {
      ++scanned;
      if (pit->second.back().doc == ord) continue;
    }
    postings_.Push(pit, Posting{.doc = ord});
  }
  postings_.forward[ord].shrink_to_fit();
  CountScanned(scanned);

  // Numeric/date fields feed the range index.
  for (const auto& [field, value] : entity.fields()) {
    if (value.empty()) continue;
    if (field == "date") {
      // "YYYY-MM" or "YYYY-MM-DD" -> yyyymmdd (day defaults to 01).
      std::vector<std::string> parts = common::Split(value, "-");
      if (parts.size() >= 2) {
        char* end = nullptr;
        double y = std::strtod(parts[0].c_str(), &end);
        double m = std::strtod(parts[1].c_str(), &end);
        double d = parts.size() >= 3
                       ? std::strtod(parts[2].c_str(), &end)
                       : 1.0;
        AddFieldValueLocked(field, y * 10000 + m * 100 + d, ord);
        continue;
      }
    }
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end != nullptr && *end == '\0' && end != value.c_str()) {
      AddFieldValueLocked(field, v, ord);
    }
  }
}

void InvertedIndex::AddFieldValueLocked(const std::string& field,
                                        double value, uint32_t ord) {
  fields_.Push(fields_.lists.try_emplace(field).first,
               FieldValue{.value = value, .doc = ord});
}

// --- Tier merging -----------------------------------------------------------

int InvertedIndex::OwnerTierLocked(const std::string& doc_id) const {
  const auto& frozen = frozen_.runs();
  if (doc_ids_.count(doc_id) > 0) return static_cast<int>(frozen.size());
  for (int t = static_cast<int>(frozen.size()) - 1; t >= 0; --t) {
    if (frozen[static_cast<size_t>(t)]->FindDoc(doc_id) >= 0) return t;
  }
  return -1;
}

std::map<std::string, std::vector<uint32_t>>
InvertedIndex::MergedPostingsLocked(const std::string& lower_term) const {
  const auto& frozen = frozen_.runs();
  std::map<std::string, std::vector<uint32_t>> acc;
  // Memoize owner lookups: one term often touches the same docs in several
  // tiers.
  std::map<std::string, int> owner;
  auto owner_of = [this, &owner](const std::string& doc_id) {
    auto it = owner.find(doc_id);
    if (it != owner.end()) return it->second;
    int o = OwnerTierLocked(doc_id);
    owner.emplace(doc_id, o);
    return o;
  };
  for (size_t t = 0; t < frozen.size(); ++t) {
    const store::IndexSegmentReader::TermEntry* entry =
        frozen[t]->FindTerm(lower_term);
    if (entry == nullptr) continue;
    // The segment verified its checksum at open, so a decode failure here
    // is a logic bug or an I/O fault mid-read, not query input.
    auto postings_or = frozen[t]->Postings(*entry);
    WF_CHECK_OK(postings_or.status());
    for (store::TermPostings& tp : postings_or.value()) {
      const std::string& doc_id = frozen[t]->docs()[tp.doc_ord];
      if (owner_of(doc_id) != static_cast<int>(t)) continue;  // shadowed
      acc[doc_id] = std::move(tp.positions);
    }
  }
  auto it = postings_.lists.find(lower_term);
  if (it != postings_.lists.end()) {
    // The delta is the newest tier: it owns every doc it holds. operator[]
    // records presence even for position-less concept postings.
    for (const Posting& p : it->second) {
      const std::span<const uint32_t> positions = PositionsLocked(p);
      acc[docs_[p.doc]].assign(positions.begin(), positions.end());
    }
  }
  return acc;
}

std::vector<std::string> InvertedIndex::MergedVocabularyLocked(
    const std::string& prefix) const {
  std::set<std::string> terms;
  for (auto it = postings_.lists.lower_bound(prefix);
       it != postings_.lists.end() && common::StartsWith(it->first, prefix);
       ++it) {
    terms.insert(it->first);
  }
  for (const auto& reader : frozen_.runs()) {
    const std::vector<store::IndexSegmentReader::TermEntry>& dict =
        reader->terms();
    auto lo = std::lower_bound(
        dict.begin(), dict.end(), prefix,
        [](const store::IndexSegmentReader::TermEntry& e,
           const std::string& p) { return e.term < p; });
    for (auto it = lo;
         it != dict.end() && common::StartsWith(it->term, prefix); ++it) {
      terms.insert(it->term);
    }
  }
  return std::vector<std::string>(terms.begin(), terms.end());
}

std::vector<std::string> InvertedIndex::LiveVocabularyLocked(
    const std::string& prefix) const {
  const auto& frozen = frozen_.runs();
  std::vector<std::string> out;
  for (std::string& term : MergedVocabularyLocked(prefix)) {
    // Delta lists are never empty, so a delta term is live. Otherwise its
    // frozen lists are read newest first, up to the first posting whose
    // doc that tier owns.
    bool live = postings_.lists.count(term) > 0;
    for (size_t t = frozen.size(); !live && t-- > 0;) {
      const store::IndexSegmentReader::TermEntry* entry =
          frozen[t]->FindTerm(term);
      if (entry == nullptr) continue;
      auto postings_or = frozen[t]->Postings(*entry);
      WF_CHECK_OK(postings_or.status());  // checksummed at open
      for (const store::TermPostings& tp : postings_or.value()) {
        if (OwnerTierLocked(frozen[t]->docs()[tp.doc_ord]) ==
            static_cast<int>(t)) {
          live = true;
          break;
        }
      }
    }
    if (live) out.push_back(std::move(term));
  }
  return out;
}

// --- Queries ----------------------------------------------------------------

std::vector<std::string> InvertedIndex::Term(const std::string& term) const {
  common::MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [doc_id, positions] : MergedPostingsLocked(ToLower(term))) {
    out.push_back(doc_id);
  }
  return out;
}

std::vector<std::string> InvertedIndex::And(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) return {};
  std::vector<std::string> result = Term(terms[0]);
  for (size_t i = 1; i < terms.size() && !result.empty(); ++i) {
    std::vector<std::string> next = Term(terms[i]);
    std::vector<std::string> merged;
    std::set_intersection(result.begin(), result.end(), next.begin(),
                          next.end(), std::back_inserter(merged));
    result = std::move(merged);
  }
  return result;
}

std::vector<std::string> InvertedIndex::Or(
    const std::vector<std::string>& terms) const {
  std::set<std::string> acc;
  for (const std::string& t : terms) {
    for (std::string& d : Term(t)) acc.insert(std::move(d));
  }
  return std::vector<std::string>(acc.begin(), acc.end());
}

std::vector<std::string> InvertedIndex::Not(const std::string& term,
                                            const std::string& exclude) const {
  std::vector<std::string> base = Term(term);
  std::vector<std::string> minus = Term(exclude);
  std::vector<std::string> out;
  std::set_difference(base.begin(), base.end(), minus.begin(), minus.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<std::string> InvertedIndex::Phrase(
    const std::vector<std::string>& words) const {
  if (words.empty()) return {};
  if (words.size() == 1) return Term(words[0]);

  common::MutexLock lock(mu_);
  const auto first = MergedPostingsLocked(ToLower(words[0]));
  if (first.empty()) return {};
  std::vector<std::map<std::string, std::vector<uint32_t>>> rest;
  rest.reserve(words.size() - 1);
  for (size_t w = 1; w < words.size(); ++w) {
    rest.push_back(MergedPostingsLocked(ToLower(words[w])));
  }

  std::vector<std::string> out;
  for (const auto& [doc_id, positions] : first) {
    // For each start position, check the continuation in every next term.
    bool hit = false;
    for (uint32_t pos : positions) {
      bool all = true;
      for (size_t w = 1; w < words.size(); ++w) {
        auto it = rest[w - 1].find(doc_id);
        if (it == rest[w - 1].end() ||
            !std::binary_search(it->second.begin(), it->second.end(),
                                pos + static_cast<uint32_t>(w))) {
          all = false;
          break;
        }
      }
      if (all) {
        hit = true;
        break;
      }
    }
    if (hit) out.push_back(doc_id);
  }
  return out;
}

std::vector<std::string> InvertedIndex::Prefix(
    const std::string& prefix) const {
  common::MutexLock lock(mu_);
  std::set<std::string> acc;
  for (const std::string& term : MergedVocabularyLocked(ToLower(prefix))) {
    for (const auto& [doc_id, positions] : MergedPostingsLocked(term)) {
      acc.insert(doc_id);
    }
  }
  return std::vector<std::string>(acc.begin(), acc.end());
}

std::vector<std::string> InvertedIndex::MatchRegex(
    const std::string& pattern) const {
  common::MutexLock lock(mu_);
  std::regex re;
  try {
    re = std::regex(pattern, std::regex::ECMAScript | std::regex::icase);
  } catch (const std::regex_error&) {
    return {};
  }
  std::set<std::string> acc;
  for (const std::string& term : MergedVocabularyLocked("")) {
    if (!std::regex_match(term, re)) continue;
    for (const auto& [doc_id, positions] : MergedPostingsLocked(term)) {
      acc.insert(doc_id);
    }
  }
  return std::vector<std::string>(acc.begin(), acc.end());
}

std::vector<std::string> InvertedIndex::Range(const std::string& field,
                                              double lo, double hi) const {
  const auto& frozen = frozen_.runs();
  common::MutexLock lock(mu_);
  std::set<std::string> acc;
  for (size_t t = 0; t < frozen.size(); ++t) {
    auto fit = frozen[t]->fields().find(field);
    if (fit == frozen[t]->fields().end()) continue;
    for (const store::FieldValueEntry& entry : fit->second) {
      if (entry.value < lo || entry.value > hi) continue;
      const std::string& doc_id = frozen[t]->docs()[entry.doc_ord];
      if (OwnerTierLocked(doc_id) != static_cast<int>(t)) continue;
      acc.insert(doc_id);
    }
  }
  auto it = fields_.lists.find(field);
  if (it != fields_.lists.end()) {
    for (const FieldValue& fv : it->second) {
      if (fv.value >= lo && fv.value <= hi) acc.insert(docs_[fv.doc]);
    }
  }
  return std::vector<std::string>(acc.begin(), acc.end());
}

size_t InvertedIndex::TermFrequency(const std::string& term,
                                    const std::string& doc_id) const {
  common::MutexLock lock(mu_);
  const auto merged = MergedPostingsLocked(ToLower(term));
  auto it = merged.find(doc_id);
  if (it == merged.end()) return 0;
  return it->second.empty() ? 1 : it->second.size();
}

size_t InvertedIndex::document_count() const {
  common::MutexLock lock(mu_);
  if (frozen_.runs().empty()) return docs_.size();
  std::set<std::string> ids(docs_.begin(), docs_.end());
  for (const auto& reader : frozen_.runs()) {
    ids.insert(reader->docs().begin(), reader->docs().end());
  }
  return ids.size();
}

size_t InvertedIndex::vocabulary_size() const {
  common::MutexLock lock(mu_);
  if (frozen_.runs().empty()) return postings_.lists.size();
  // Counting live terms decodes postings term by term, and the node stats
  // service reports the count on every call: keep it until a write.
  if (!live_vocabulary_size_.has_value()) {
    live_vocabulary_size_ = LiveVocabularyLocked("").size();
  }
  return *live_vocabulary_size_;
}

std::vector<std::string> InvertedIndex::VocabularyWithPrefix(
    const std::string& prefix) const {
  common::MutexLock lock(mu_);
  return LiveVocabularyLocked(ToLower(prefix));
}

// --- Freeze / compaction ----------------------------------------------------

common::Status InvertedIndex::WriteDeltaRunLocked(
    const std::string& path, common::StorageFaultInjector* injector) const {
  store::IndexRunWriter writer;
  // Canonical doc table: sorted by id, ordinals remapped accordingly.
  std::vector<uint32_t> order(docs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return docs_[a] < docs_[b];
  });
  std::vector<uint32_t> remap(docs_.size(), 0);
  for (uint32_t new_ord = 0; new_ord < order.size(); ++new_ord) {
    remap[order[new_ord]] = new_ord;
    writer.AddDoc(docs_[order[new_ord]]);
  }
  // Each list, ordered by remapped ordinal in one reused scratch vector;
  // the positions are encoded straight from positions_.
  std::vector<store::IndexRunWriter::Posting> postings;
  for (const auto& [term, list] : postings_.lists) {
    postings.clear();
    for (const Posting& p : list) {
      postings.push_back({remap[p.doc], PositionsLocked(p)});
    }
    std::sort(postings.begin(), postings.end(),
              [](const auto& a, const auto& b) {
                return a.doc_ord < b.doc_ord;
              });
    writer.AddTerm(term, postings);
  }
  std::vector<store::FieldValueEntry> values;
  for (const auto& [field, list] : fields_.lists) {
    // IndexEntity gives a doc one value per field, so ordinal order is
    // canonical.
    values.clear();
    for (const FieldValue& fv : list) {
      values.push_back({fv.value, remap[fv.doc]});
    }
    std::sort(values.begin(), values.end(),
              [](const store::FieldValueEntry& a,
                 const store::FieldValueEntry& b) {
                return a.doc_ord < b.doc_ord;
              });
    writer.AddField(field, values);
  }
  return writer.WriteTo(path, injector);
}

common::Status InvertedIndex::FreezeLocked() {
  if (docs_.empty()) return common::Status::Ok();
  obs::ScopedTimer timer(freeze_us_);
  // Fail before the manifest swap commits the segment and the delta tier
  // (and the WAL above us) still holds everything: nothing is lost.
  WF_RETURN_IF_ERROR(frozen_.Append(
      [this](const std::string& path, common::StorageFaultInjector* injector)
          WF_NO_THREAD_SAFETY_ANALYSIS {
            return WriteDeltaRunLocked(path, injector);
          }));
  docs_.clear();
  doc_ids_.clear();
  postings_ = {};
  fields_ = {};
  positions_.clear();
  if (freezes_counter_ != nullptr) freezes_counter_->Add();
  return common::Status::Ok();
}

void InvertedIndex::UpdateGaugesLocked() const {
  if (frozen_segments_gauge_ != nullptr) {
    frozen_segments_gauge_->Set(static_cast<int64_t>(frozen_.runs().size()));
  }
  if (delta_docs_gauge_ != nullptr) {
    delta_docs_gauge_->Set(static_cast<int64_t>(docs_.size()));
  }
}

// --- Snapshot persistence ---------------------------------------------------

common::Status InvertedIndex::Save(
    const std::string& path, common::StorageFaultInjector* injector) const {
  const auto& frozen = frozen_.runs();
  common::MutexLock lock(mu_);
  // The canonical merged image: docs sorted by id with remapped ordinals,
  // terms sorted, postings in doc-ordinal order, fields sorted by
  // (ordinal, value). A pure function of the logical contents, so two
  // indexes with equal data but different tier layouts save byte-identical
  // snapshots (the determinism contract parallel mining relies on).
  // Written atomically under the checksummed `wfsnap index` envelope.
  std::ostringstream out;
  out << "wfidx 1\n";
  std::set<std::string> doc_set(docs_.begin(), docs_.end());
  for (const auto& reader : frozen) {
    doc_set.insert(reader->docs().begin(), reader->docs().end());
  }
  std::unordered_map<std::string, uint32_t> ord_of;
  ord_of.reserve(doc_set.size());
  {
    uint32_t ord = 0;
    for (const std::string& doc_id : doc_set) {
      out << "doc " << ord << " " << store::EscapeIndexToken(doc_id) << "\n";
      ord_of.emplace(doc_id, ord);
      ++ord;
    }
  }
  for (const std::string& term : MergedVocabularyLocked("")) {
    const auto merged = MergedPostingsLocked(term);
    if (merged.empty()) continue;
    out << "term " << store::EscapeIndexToken(term);
    for (const auto& [doc_id, positions] : merged) {
      out << " " << ord_of[doc_id] << ":";
      for (size_t k = 0; k < positions.size(); ++k) {
        if (k > 0) out << ",";
        out << positions[k];
      }
    }
    out << "\n";
  }
  std::set<std::string> field_names;
  for (const auto& [field, values] : fields_.lists) field_names.insert(field);
  for (const auto& reader : frozen) {
    for (const auto& [field, entries] : reader->fields()) {
      field_names.insert(field);
    }
  }
  for (const std::string& field : field_names) {
    std::set<std::pair<uint32_t, double>> entries;
    for (size_t t = 0; t < frozen.size(); ++t) {
      auto fit = frozen[t]->fields().find(field);
      if (fit == frozen[t]->fields().end()) continue;
      for (const store::FieldValueEntry& entry : fit->second) {
        const std::string& doc_id = frozen[t]->docs()[entry.doc_ord];
        if (OwnerTierLocked(doc_id) != static_cast<int>(t)) continue;
        entries.emplace(ord_of[doc_id], entry.value);
      }
    }
    auto it = fields_.lists.find(field);
    if (it != fields_.lists.end()) {
      for (const FieldValue& fv : it->second) {
        entries.emplace(ord_of[docs_[fv.doc]], fv.value);
      }
    }
    for (const auto& [ord, value] : entries) {
      out << "field " << store::EscapeIndexToken(field) << " " << value << " "
          << ord << "\n";
    }
  }
  return common::WriteSnapshotFile(path, common::kSnapKindIndex, /*version=*/1,
                                   out.str(), injector);
}

}  // namespace wf::platform
