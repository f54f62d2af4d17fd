#include "platform/indexer.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <regex>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/timer.h"
#include "store/varint.h"
#include "text/tokenizer.h"

namespace wf::platform {

using ::wf::common::ToLower;

namespace {

using ::wf::common::LowerInto;

// IndexEntity's mark for a token that posts no term.
constexpr uint32_t kNoTerm = UINT32_MAX;

// The yyyymmdd value of an ISO date, "YYYY-MM" (day 01) or "YYYY-MM-DD"
// with an optional time after a 'T'; nullopt for anything else.
std::optional<double> ParseIsoDate(std::string_view date) {
  auto number = [date](size_t at, size_t digits, int lo, int hi,
                       int* out) {
    if (date.size() < at + digits) return false;
    int value = 0;
    for (size_t i = at; i < at + digits; ++i) {
      if (date[i] < '0' || date[i] > '9') return false;
      value = value * 10 + (date[i] - '0');
    }
    *out = value;
    return value >= lo && value <= hi;
  };
  int year = 0;
  int month = 0;
  int day = 1;
  if (!number(0, 4, 0, 9999, &year) || date.size() < 7 || date[4] != '-' ||
      !number(5, 2, 1, 12, &month)) {
    return std::nullopt;
  }
  if (date.size() > 7 &&
      (date[7] != '-' || !number(8, 2, 1, 31, &day) ||
       (date.size() > 10 && date[10] != 'T'))) {
    return std::nullopt;
  }
  return year * 10000.0 + month * 100.0 + day;
}

// The number `value` spells in full, as strtod reads it; nullopt when it
// spells none.
std::optional<double> ParseNumber(const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') return std::nullopt;
  return v;
}

}  // namespace

void InvertedIndex::AttachMetrics(const obs::MetricsRegistry* metrics) {
  common::MutexLock lock(mu_);
  frozen_.AttachMetrics(metrics, "index");
  metrics_ = metrics;
  frozen_segments_gauge_ = nullptr;
  delta_docs_gauge_ = nullptr;
  delta_bytes_gauge_ = nullptr;
  freezes_counter_ = nullptr;
  postings_scanned_counter_ = nullptr;
  freeze_us_ = nullptr;
  if (metrics_ == nullptr) return;
  frozen_segments_gauge_ = metrics_->GetGauge("index/frozen_segments");
  delta_docs_gauge_ = metrics_->GetGauge("index/delta_docs");
  delta_bytes_gauge_ = metrics_->GetGauge("index/delta_bytes");
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
  if (!delta_.doc_ids.empty()) {
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

void InvertedIndex::CountScanned(size_t entries) {
  if (entries > 0 && postings_scanned_counter_ != nullptr) {
    postings_scanned_counter_->Add(entries);
  }
}

std::pair<InvertedIndex::TermMap::iterator, bool>
InvertedIndex::FindOrAddTermLocked(const std::string& lower_term) {
  auto [term, created] = delta_.terms.try_emplace(lower_term);
  if (!created) return {term, false};
  if (delta_.free_term_ids.empty()) {
    term->second.id = static_cast<uint32_t>(delta_.term_by_id.size());
    delta_.term_by_id.push_back(term);
    delta_.term_slots.push_back(0);
  } else {
    term->second.id = delta_.free_term_ids.back();
    delta_.free_term_ids.pop_back();
    delta_.term_by_id[term->second.id] = term;
  }
  return {term, true};
}

void InvertedIndex::AppendLocked(TermBlock& term, uint32_t ord,
                                 std::span<const uint32_t> positions) {
  const size_t before = term.bytes.size();
  store::PutPosting(ord - term.last_doc, positions, &term.bytes);
  delta_.bytes += term.bytes.size() - before;
  term.last_doc = ord;
  ++term.postings;
  ++term.live;
  ++delta_.live_postings;
  store::PutVarint(term.id, &term_list_);
}

size_t InvertedIndex::RetireLocked(uint32_t ord) {
  DeltaDoc& doc = delta_.docs[ord];
  doc.id = nullptr;
  size_t terms = 0;
  for (size_t pos = 0; pos < doc.terms.size(); ++terms) {
    uint64_t id = 0;
    WF_CHECK(store::GetVarint(doc.terms, &pos, &id));
    const TermMap::iterator term = delta_.term_by_id[id];
    --delta_.live_postings;
    if (--term->second.live > 0) {
      ++delta_.retired_postings;
      continue;
    }
    // Its last live entry: the term goes, its retired entries with it.
    delta_.retired_postings -= term->second.postings - 1;
    delta_.bytes -= term->second.bytes.size();
    delta_.free_term_ids.push_back(term->second.id);
    delta_.terms.erase(term);
  }
  std::string().swap(doc.terms);
  return terms;
}

template <typename Fn>
void InvertedIndex::ForEachLiveLocked(const TermBlock& block,
                                      std::vector<uint32_t>* positions,
                                      Fn&& fn) const {
  positions->clear();
  // An entry takes a byte per position and two more, so the buffer never
  // grows while the block decodes.
  positions->reserve(block.bytes.size());
  uint32_t ord = 0;
  for (size_t pos = 0; pos < block.bytes.size();) {
    const size_t first = positions->size();
    uint64_t delta = 0;
    // The delta wrote these bytes: a decode failure is a logic bug.
    WF_CHECK(store::GetPosting(block.bytes, &pos, &delta, positions));
    ord += static_cast<uint32_t>(delta);
    if (delta_.docs[ord].id == nullptr) continue;  // retired
    fn(ord, std::span<const uint32_t>(positions->data() + first,
                                      positions->size() - first));
  }
}

size_t InvertedIndex::PurgeLocked() {
  constexpr uint32_t kRetired = UINT32_MAX;
  std::vector<uint32_t> remap(delta_.docs.size(), kRetired);
  uint32_t live = 0;
  for (uint32_t ord = 0; ord < delta_.docs.size(); ++ord) {
    if (delta_.docs[ord].id != nullptr) remap[ord] = live++;
  }
  // Renumbering in order keeps every block ascending.
  size_t visited = 0;
  std::vector<uint32_t> positions;
  std::string purged;
  for (auto& [text, term] : delta_.terms) {
    visited += term.postings;
    purged.clear();
    uint32_t last = 0;
    ForEachLiveLocked(term, &positions,
                      [&](uint32_t ord, std::span<const uint32_t> at) {
                        store::PutPosting(remap[ord] - last, at, &purged);
                        last = remap[ord];
                      });
    delta_.bytes -= term.bytes.size() - purged.size();
    term.bytes.assign(purged);
    term.bytes.shrink_to_fit();
    term.postings = term.live;
    term.last_doc = last;
  }
  for (auto& [field, values] : delta_.fields) {
    visited += values.size();
    std::erase_if(values, [&remap](const FieldValue& fv) {
      return remap[fv.doc] == kRetired;
    });
    for (FieldValue& fv : values) fv.doc = remap[fv.doc];
    values.shrink_to_fit();
  }
  std::erase_if(delta_.fields,
                [](const auto& field) { return field.second.empty(); });
  for (auto& [id, ord] : delta_.doc_ids) ord = remap[ord];
  std::erase_if(delta_.docs,
                [](const DeltaDoc& doc) { return doc.id == nullptr; });
  delta_.retired_postings = 0;
  return visited;
}

void InvertedIndex::IndexEntity(const Entity& entity) {
  text::Tokenizer tokenizer;
  IndexEntity(entity, tokenizer.Tokenize(entity.body()));
}

void InvertedIndex::IndexEntity(const Entity& entity,
                                const text::TokenStream& tokens) {
  common::MutexLock lock(mu_);
  live_vocabulary_size_.reset();
  // The delta is the newest tier, so this version shadows every frozen
  // one, and the doc's previous delta version (a re-index) retires.
  const uint32_t ord = static_cast<uint32_t>(delta_.docs.size());
  auto [slot, fresh] = delta_.doc_ids.try_emplace(entity.id(), ord);
  size_t scanned = fresh ? 0 : RetireLocked(slot->second);
  slot->second = ord;
  delta_.docs.emplace_back().id = &slot->first;

  // Pass 1: each word's term, counting the body's positions per term. A
  // term the map already held costs a duplicate check.
  token_terms_.assign(tokens.size(), kNoTerm);
  doc_terms_.clear();
  term_list_.clear();
  for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
    if (tokens[pos].kind != text::TokenKind::kWord &&
        tokens[pos].kind != text::TokenKind::kNumber) {
      continue;
    }
    LowerInto(tokens[pos].text, &lower_);
    const auto [term, created] = FindOrAddTermLocked(lower_);
    scanned += created ? 0 : 1;
    const uint32_t term_id = term->second.id;
    if (delta_.term_slots[term_id]++ == 0) doc_terms_.push_back(term_id);
    token_terms_[pos] = term_id;
  }
  // Pass 2: lay each term's positions out contiguously, in order of first
  // appearance, then append one entry per term.
  uint32_t offset = 0;
  for (uint32_t term_id : doc_terms_) {
    const uint32_t count = delta_.term_slots[term_id];
    delta_.term_slots[term_id] = offset;
    offset += count;
  }
  grouped_.resize(offset);
  for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
    if (token_terms_[pos] == kNoTerm) continue;
    grouped_[delta_.term_slots[token_terms_[pos]]++] = pos;
  }
  uint32_t begin = 0;
  for (uint32_t term_id : doc_terms_) {
    const uint32_t end = delta_.term_slots[term_id];
    delta_.term_slots[term_id] = 0;
    AppendLocked(delta_.term_by_id[term_id]->second, ord,
                 std::span<const uint32_t>(grouped_).subspan(begin,
                                                             end - begin));
    begin = end;
  }
  for (const std::string& concept_token : entity.concept_tokens()) {
    LowerInto(concept_token, &lower_);
    const auto [term, created] = FindOrAddTermLocked(lower_);
    if (!created) {
      ++scanned;
      if (term->second.last_doc == ord) continue;  // the doc has one
    }
    AppendLocked(term->second, ord, {});
  }
  // Copied, not built in place, so the doc's list takes one allocation of
  // about its size.
  delta_.docs[ord].terms = term_list_;

  // Numeric/date fields feed the range index.
  for (const auto& [field, value] : entity.fields()) {
    if (value.empty()) continue;
    const std::optional<double> v =
        field == "date" ? ParseIsoDate(value) : ParseNumber(value);
    if (v.has_value()) delta_.fields[field].push_back({*v, ord});
  }

  // Retired entries, or retired ordinals, outnumber live ones: a purge's
  // work is then at most twice the retirements it clears.
  const size_t live_docs = delta_.doc_ids.size();
  if (delta_.retired_postings > delta_.live_postings ||
      delta_.docs.size() - live_docs > live_docs) {
    scanned += PurgeLocked();
  }
  CountScanned(scanned);
  UpdateGaugesLocked();
}

// --- Tier merging -----------------------------------------------------------

int InvertedIndex::OwnerTierLocked(const std::string& doc_id) const {
  const auto& frozen = frozen_.runs();
  if (delta_.doc_ids.count(doc_id) > 0) {
    return static_cast<int>(frozen.size());
  }
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
  auto it = delta_.terms.find(lower_term);
  if (it != delta_.terms.end()) {
    // The delta is the newest tier: it owns every live doc it holds.
    // operator[] records presence even for position-less concept postings.
    std::vector<uint32_t> positions;
    ForEachLiveLocked(it->second, &positions,
                      [&](uint32_t ord, std::span<const uint32_t> at) {
                        acc[*delta_.docs[ord].id].assign(at.begin(),
                                                         at.end());
                      });
  }
  return acc;
}

std::vector<std::string> InvertedIndex::MergedVocabularyLocked(
    const std::string& prefix) const {
  std::set<std::string> terms;
  for (auto it = delta_.terms.lower_bound(prefix);
       it != delta_.terms.end() && common::StartsWith(it->first, prefix);
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
    // Every delta term has a live entry, so a delta term is live.
    // Otherwise its frozen lists are read newest first, up to the first
    // posting whose doc that tier owns.
    bool live = delta_.terms.count(term) > 0;
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
  auto it = delta_.fields.find(field);
  if (it != delta_.fields.end()) {
    for (const FieldValue& fv : it->second) {
      const std::string* doc_id = delta_.docs[fv.doc].id;
      if (doc_id != nullptr && fv.value >= lo && fv.value <= hi) {
        acc.insert(*doc_id);
      }
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
  if (frozen_.runs().empty()) return delta_.doc_ids.size();
  std::set<std::string> ids;
  for (const auto& [doc_id, ord] : delta_.doc_ids) ids.insert(doc_id);
  for (const auto& reader : frozen_.runs()) {
    ids.insert(reader->docs().begin(), reader->docs().end());
  }
  return ids.size();
}

size_t InvertedIndex::vocabulary_size() const {
  common::MutexLock lock(mu_);
  if (frozen_.runs().empty()) return delta_.terms.size();
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
  // Canonical doc table: the live docs sorted by id, ordinals remapped
  // accordingly (a retired ordinal is never read). A sweep indexes in
  // sorted-id order, so the live ordinals usually are in id order already,
  // and so are each term's remapped entries below.
  std::vector<uint32_t> order;
  order.reserve(delta_.doc_ids.size());
  for (uint32_t ord = 0; ord < delta_.docs.size(); ++ord) {
    if (delta_.docs[ord].id != nullptr) order.push_back(ord);
  }
  auto by_id = [this](uint32_t a, uint32_t b) {
    return *delta_.docs[a].id < *delta_.docs[b].id;
  };
  if (!std::is_sorted(order.begin(), order.end(), by_id)) {
    std::sort(order.begin(), order.end(), by_id);
  }
  std::vector<uint32_t> remap(delta_.docs.size(), 0);
  for (uint32_t new_ord = 0; new_ord < order.size(); ++new_ord) {
    remap[order[new_ord]] = new_ord;
    writer.AddDoc(*delta_.docs[order[new_ord]].id);
  }
  // Each block decodes into one reused scratch buffer.
  std::vector<uint32_t> positions;
  std::vector<store::IndexRunWriter::Posting> postings;
  auto by_ordinal = [](const auto& a, const auto& b) {
    return a.doc_ord < b.doc_ord;
  };
  for (const auto& [term, block] : delta_.terms) {
    postings.clear();
    ForEachLiveLocked(block, &positions,
                      [&](uint32_t ord, std::span<const uint32_t> at) {
                        postings.push_back({remap[ord], at});
                      });
    if (!std::is_sorted(postings.begin(), postings.end(), by_ordinal)) {
      std::sort(postings.begin(), postings.end(), by_ordinal);
    }
    writer.AddTerm(term, postings);
  }
  std::vector<store::FieldValueEntry> values;
  for (const auto& [field, list] : delta_.fields) {
    // IndexEntity gives a doc one value per field, so ordinal order is
    // canonical.
    values.clear();
    for (const FieldValue& fv : list) {
      if (delta_.docs[fv.doc].id != nullptr) {
        values.push_back({fv.value, remap[fv.doc]});
      }
    }
    if (!std::is_sorted(values.begin(), values.end(), by_ordinal)) {
      std::sort(values.begin(), values.end(), by_ordinal);
    }
    writer.AddField(field, values);
  }
  return writer.WriteTo(path, injector);
}

common::Status InvertedIndex::FreezeLocked() {
  if (delta_.doc_ids.empty()) return common::Status::Ok();
  obs::ScopedTimer timer(freeze_us_);
  // Fail before the manifest swap commits the segment and the delta tier
  // (and the WAL above us) still holds everything: nothing is lost.
  WF_RETURN_IF_ERROR(frozen_.Append(
      [this](const std::string& path, common::StorageFaultInjector* injector)
          WF_NO_THREAD_SAFETY_ANALYSIS {
            return WriteDeltaRunLocked(path, injector);
          }));
  // A fresh Delta, move-assigned, hands every container's storage back; a
  // clear() would keep the capacity.
  delta_ = Delta();
  if (freezes_counter_ != nullptr) freezes_counter_->Add();
  return common::Status::Ok();
}

void InvertedIndex::UpdateGaugesLocked() const {
  if (frozen_segments_gauge_ != nullptr) {
    frozen_segments_gauge_->Set(static_cast<int64_t>(frozen_.runs().size()));
  }
  if (delta_docs_gauge_ != nullptr) {
    delta_docs_gauge_->Set(static_cast<int64_t>(delta_.doc_ids.size()));
  }
  if (delta_bytes_gauge_ != nullptr) {
    delta_bytes_gauge_->Set(static_cast<int64_t>(delta_.bytes));
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
  std::set<std::string> doc_set;
  for (const auto& [doc_id, ord] : delta_.doc_ids) doc_set.insert(doc_id);
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
  for (const auto& [field, values] : delta_.fields) field_names.insert(field);
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
    auto it = delta_.fields.find(field);
    if (it != delta_.fields.end()) {
      for (const FieldValue& fv : it->second) {
        const std::string* doc_id = delta_.docs[fv.doc].id;
        if (doc_id != nullptr) entries.emplace(ord_of[*doc_id], fv.value);
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
