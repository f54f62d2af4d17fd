#ifndef WF_PLATFORM_CORPUS_MINERS_H_
#define WF_PLATFORM_CORPUS_MINERS_H_

#include <map>
#include <string>
#include <vector>

#include "platform/miner_framework.h"

namespace wf::platform {

// §2 names three corpus-level miner families: "computing aggregate
// statistics, duplicate detection, trending". These are their
// implementations; each runs over a DataStore shard (or a merged view) and
// either annotates entities or exposes a report.

// Near-duplicate detection via MinHash over token shingles with LSH
// banding. Duplicate entities (Jaccard similarity of shingle sets >=
// `threshold` against an earlier entity) get a "duplicate_of" field naming
// the retained representative.
class DuplicateDetectionMiner : public CorpusMiner {
 public:
  struct Options {
    size_t shingle_size = 4;     // tokens per shingle
    size_t num_hashes = 32;      // MinHash signature width
    size_t bands = 8;            // LSH bands (rows = num_hashes / bands)
    double threshold = 0.85;     // verified Jaccard similarity
  };

  DuplicateDetectionMiner() : DuplicateDetectionMiner(Options{}) {}
  explicit DuplicateDetectionMiner(const Options& options);

  std::string name() const override { return "duplicate_detection"; }
  common::Status Run(DataStore& store) override;

  // (duplicate id, representative id) pairs found by the last Run().
  const std::vector<std::pair<std::string, std::string>>& duplicates()
      const {
    return duplicates_;
  }

 private:
  Options options_;
  std::vector<std::pair<std::string, std::string>> duplicates_;
};

// Corpus-wide aggregate statistics (document/token/vocabulary counts),
// written into the miner and queryable afterwards.
class AggregateStatsMiner : public CorpusMiner {
 public:
  struct Stats {
    size_t documents = 0;
    size_t tokens = 0;
    size_t words = 0;
    size_t vocabulary = 0;
    double avg_tokens_per_doc = 0.0;
  };

  std::string name() const override { return "aggregate_stats"; }
  common::Status Run(DataStore& store) override;

  const Stats& stats() const { return stats_; }

 private:
  Stats stats_;
};

// Sentiment trending: buckets the "sentiment" annotations written by the
// sentiment miners over each entity's "date" field (ISO "YYYY-MM" or
// "YYYY-MM-DD"; the month prefix is the bucket) and reports per-subject
// positive/negative counts per bucket — the "tracking of market trends"
// capability of the reputation application.
class TrendingMiner : public CorpusMiner {
 public:
  struct Bucket {
    std::string month;  // "2004-07"
    size_t positive = 0;
    size_t negative = 0;
  };

  std::string name() const override { return "trending"; }
  common::Status Run(DataStore& store) override;

  // Buckets for one subject (case-insensitive), sorted by month.
  std::vector<Bucket> TrendFor(const std::string& subject) const;
  // All subjects with at least one dated sentiment mention.
  std::vector<std::string> Subjects() const;

 private:
  // subject -> month -> (pos, neg)
  std::map<std::string, std::map<std::string, std::pair<size_t, size_t>>>
      trends_;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_CORPUS_MINERS_H_
