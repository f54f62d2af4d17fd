#ifndef WF_PLATFORM_SENTIMENT_MINER_PLUGIN_H_
#define WF_PLATFORM_SENTIMENT_MINER_PLUGIN_H_

#include <memory>
#include <string>

#include "core/miner.h"
#include "platform/miner_framework.h"

namespace wf::platform {

// Conceptual-token format the sentiment plugins emit, consumed by the
// SentimentQueryService: "sent/<polarity>/<subject>" with the subject
// lowercased and spaces replaced by '_' ("sent/+/nr70").
std::string SentimentConceptToken(const std::string& subject,
                                  lexicon::Polarity polarity);

// Entity-level miner deploying Mode B (no predefined subjects, Figure 3):
// runs the ad-hoc sentiment miner over each entity, annotating it with a
// "sentiment" layer and emitting conceptual tokens for the indexer. This is
// the offline corpus pass that makes query-time sentiment lookups fast.
class AdHocSentimentMinerPlugin : public EntityMiner {
 public:
  // `lexicon` and `patterns` must outlive the plugin.
  AdHocSentimentMinerPlugin(const lexicon::SentimentLexicon* lexicon,
                            const lexicon::PatternDatabase* patterns)
      : miner_(lexicon, patterns) {}

  std::string name() const override { return "sentiment_adhoc"; }
  common::Status Process(Entity& entity, const MineContext& context) override;
  // The ad-hoc core miner is stateless across documents, so entities can
  // be mined concurrently.
  bool parallel_safe() const override { return true; }

 private:
  core::AdHocSentimentMiner miner_;
};

// Entity-level miner deploying Mode A (predefined subjects, Figure 2).
// Subjects are shared configuration; each node gets its own plugin
// instance wrapping its own core miner.
class SubjectSentimentMinerPlugin : public EntityMiner {
 public:
  SubjectSentimentMinerPlugin(const lexicon::SentimentLexicon* lexicon,
                              const lexicon::PatternDatabase* patterns,
                              std::vector<spot::SynonymSet> subjects);

  std::string name() const override { return "sentiment_subjects"; }
  common::Status Process(Entity& entity, const MineContext& context) override;
  // Mode A accumulates corpus statistics across documents (TF-IDF
  // disambiguation), so its results depend on processing order — the
  // pipeline must sweep sequentially.
  bool parallel_safe() const override { return false; }

 private:
  core::SentimentMiner miner_;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_SENTIMENT_MINER_PLUGIN_H_
