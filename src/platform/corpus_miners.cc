#include "platform/corpus_miners.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace wf::platform {

using ::wf::common::Status;

// --- DuplicateDetectionMiner ------------------------------------------------

DuplicateDetectionMiner::DuplicateDetectionMiner(const Options& options)
    : options_(options) {
  WF_CHECK(options_.num_hashes % options_.bands == 0)
      << "bands must divide num_hashes";
}

namespace {

// Shingle hash set of a document body.
std::vector<uint64_t> ShingleHashes(const std::string& body,
                                    size_t shingle_size) {
  text::Tokenizer tokenizer;
  const text::TokenStream tokens = tokenizer.Tokenize(body);
  std::vector<std::string> words;
  words.reserve(tokens.size());
  for (const text::Token& t : tokens) {
    if (t.kind == text::TokenKind::kWord) {
      words.push_back(common::ToLower(t.text));
    }
  }
  std::set<uint64_t> shingles;
  if (words.size() >= shingle_size) {
    for (size_t i = 0; i + shingle_size <= words.size(); ++i) {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (size_t k = 0; k < shingle_size; ++k) {
        h = common::HashCombine(h, common::Fnv1a64(words[i + k]));
      }
      shingles.insert(h);
    }
  } else if (!words.empty()) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string& w : words) {
      h = common::HashCombine(h, common::Fnv1a64(w));
    }
    shingles.insert(h);
  }
  return std::vector<uint64_t>(shingles.begin(), shingles.end());
}

// MinHash signature from shingle hashes; hash family h_i(x) = a_i*x + b_i
// with fixed odd multipliers (deterministic across runs).
std::vector<uint64_t> MinHashSignature(const std::vector<uint64_t>& shingles,
                                       size_t num_hashes) {
  std::vector<uint64_t> sig(num_hashes, UINT64_MAX);
  for (size_t i = 0; i < num_hashes; ++i) {
    uint64_t a = 0x9e3779b97f4a7c15ULL * (2 * i + 1) + 0x2545F4914F6CDD1DULL;
    uint64_t b = 0xda942042e4dd58b5ULL * (i + 1);
    for (uint64_t s : shingles) {
      uint64_t h = s * a + b;
      if (h < sig[i]) sig[i] = h;
    }
  }
  return sig;
}

double ExactJaccard(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  size_t i = 0, j = 0;  // both sorted (built from std::set)
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

}  // namespace

common::Status DuplicateDetectionMiner::Run(DataStore& store) {
  duplicates_.clear();

  struct DocSig {
    std::string id;
    std::vector<uint64_t> shingles;
    std::vector<uint64_t> signature;
  };
  std::vector<DocSig> docs;
  store.ForEach([&](const Entity& e) {
    DocSig d;
    d.id = e.id();
    d.shingles = ShingleHashes(e.body(), options_.shingle_size);
    d.signature = MinHashSignature(d.shingles, options_.num_hashes);
    docs.push_back(std::move(d));
  });
  // Deterministic order regardless of store iteration order.
  std::sort(docs.begin(), docs.end(),
            [](const DocSig& a, const DocSig& b) { return a.id < b.id; });

  // LSH: band signature rows into buckets; same bucket = candidate pair.
  const size_t rows = options_.num_hashes / options_.bands;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  std::unordered_map<std::string, std::string> representative_of;
  for (size_t d = 0; d < docs.size(); ++d) {
    if (docs[d].shingles.empty()) continue;
    std::unordered_set<size_t> candidates;
    for (size_t band = 0; band < options_.bands; ++band) {
      uint64_t key = common::Fnv1a64("band") + band * 1315423911ULL;
      for (size_t r = 0; r < rows; ++r) {
        key = common::HashCombine(key, docs[d].signature[band * rows + r]);
      }
      auto& bucket = buckets[key];
      for (size_t other : bucket) candidates.insert(other);
      bucket.push_back(d);
    }
    for (size_t other : candidates) {
      // Only mark d as duplicate of an earlier non-duplicate doc.
      if (representative_of.count(docs[other].id) > 0) continue;
      double sim = ExactJaccard(docs[d].shingles, docs[other].shingles);
      if (sim >= options_.threshold) {
        representative_of[docs[d].id] = docs[other].id;
        duplicates_.emplace_back(docs[d].id, docs[other].id);
        break;
      }
    }
  }

  for (const auto& [dup, rep] : duplicates_) {
    WF_RETURN_IF_ERROR(store.Update(dup, [&rep](Entity& e) {
      e.SetField("duplicate_of", rep);
    }));
  }
  return Status::Ok();
}

// --- AggregateStatsMiner ------------------------------------------------------

common::Status AggregateStatsMiner::Run(DataStore& store) {
  stats_ = Stats{};
  std::unordered_set<std::string> vocabulary;
  text::Tokenizer tokenizer;
  store.ForEach([&](const Entity& e) {
    ++stats_.documents;
    const text::TokenStream tokens = tokenizer.Tokenize(e.body());
    stats_.tokens += tokens.size();
    for (const text::Token& t : tokens) {
      if (t.kind == text::TokenKind::kWord) {
        ++stats_.words;
        vocabulary.insert(common::ToLower(t.text));
      }
    }
  });
  stats_.vocabulary = vocabulary.size();
  stats_.avg_tokens_per_doc =
      stats_.documents == 0
          ? 0.0
          : static_cast<double>(stats_.tokens) / stats_.documents;
  return Status::Ok();
}

// --- TrendingMiner ---------------------------------------------------------------

common::Status TrendingMiner::Run(DataStore& store) {
  trends_.clear();
  store.ForEach([&](const Entity& e) {
    const std::string& date = e.GetField("date");
    if (date.size() < 7) return;  // need at least YYYY-MM
    std::string month = date.substr(0, 7);
    const auto* spans = e.GetAnnotations("sentiment");
    if (spans == nullptr) return;
    for (const AnnotationSpan& span : *spans) {
      auto subj = span.attrs.find("subject");
      auto pol = span.attrs.find("polarity");
      if (subj == span.attrs.end() || pol == span.attrs.end()) continue;
      auto& bucket = trends_[common::ToLower(subj->second)][month];
      if (pol->second == "+") {
        ++bucket.first;
      } else if (pol->second == "-") {
        ++bucket.second;
      }
    }
  });
  return Status::Ok();
}

std::vector<TrendingMiner::Bucket> TrendingMiner::TrendFor(
    const std::string& subject) const {
  std::vector<Bucket> out;
  auto it = trends_.find(common::ToLower(subject));
  if (it == trends_.end()) return out;
  for (const auto& [month, counts] : it->second) {
    out.push_back(Bucket{month, counts.first, counts.second});
  }
  return out;
}

std::vector<std::string> TrendingMiner::Subjects() const {
  std::vector<std::string> out;
  out.reserve(trends_.size());
  for (const auto& [subject, buckets] : trends_) out.push_back(subject);
  return out;
}

}  // namespace wf::platform
