#ifndef WF_CORE_MINER_H_
#define WF_CORE_MINER_H_

#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/analyzer.h"
#include "core/context.h"
#include "core/sentiment_store.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "ner/named_entity_spotter.h"
#include "parse/sentence_structure.h"
#include "spot/disambiguator.h"
#include "spot/spotter.h"
#include "spot/tfidf.h"

namespace wf::core {

// Mode A (Figure 2): sentiment mining with a predefined set of subjects.
// Pipeline per document: spot subjects -> disambiguate -> build sentiment
// context -> parse the subject's sentence -> analyze -> store. Tokens,
// sentences and parses come from the document's LinguisticAnalysis, which
// parses only the sentences the miner asks for.
class SentimentMiner {
 public:
  struct Config {
    AnalyzerOptions analyzer;
    ContextBuilder::Options context;
    bool use_disambiguator = true;
    // Record neutral verdicts too (needed for accuracy computation over
    // all test cases, as the paper's evaluation does).
    bool record_neutral = true;
    // Context-window rule (§3): when the spot's own sentence is neutral,
    // attribute a short verbless follow-up fragment ("Big mistake.") to
    // the spot. Off by default — it trades precision for recall.
    bool attribute_fragments = false;
  };

  // `lexicon` and `patterns` must outlive the miner.
  SentimentMiner(const lexicon::SentimentLexicon* lexicon,
                 const lexicon::PatternDatabase* patterns)
      : SentimentMiner(lexicon, patterns, Config{}) {}
  SentimentMiner(const lexicon::SentimentLexicon* lexicon,
                 const lexicon::PatternDatabase* patterns,
                 const Config& config);

  // Subject registration (spotter synonym sets + optional topic term sets
  // for disambiguation).
  void AddSubject(const spot::SynonymSet& subject);
  void AddTopicTerms(const spot::TopicTermSet& topic);

  // Corpus statistics for TF-IDF disambiguation; optional — without it the
  // miner builds stats incrementally from the processed documents.
  void SetCorpusStats(const spot::CorpusStats* stats) { external_stats_ = stats; }

  // Mines one document (`analysis` describes its body), appending
  // mentions to `store`.
  void ProcessDocument(const std::string& doc_id, LinguisticAnalysis& analysis,
                       SentimentStore* store);

  const Config& config() const { return config_; }

 private:
  const lexicon::SentimentLexicon* lexicon_;
  Config config_;

  parse::SentenceAnalyzer sentence_analyzer_;  // fragment attribution only
  SentimentAnalyzer analyzer_;
  ContextBuilder context_builder_;
  spot::Spotter spotter_;
  spot::Disambiguator disambiguator_;
  spot::CorpusStats own_stats_;
  const spot::CorpusStats* external_stats_ = nullptr;
};

// Mode B (Figure 3): no predefined subjects — the named-entity spotter
// proposes subjects, every sentiment-bearing sentence is analyzed offline,
// and (entity, sentiment) results are meant to be indexed for query-time
// lookup (the platform layer does the indexing).
class AdHocSentimentMiner {
 public:
  struct Config {
    AnalyzerOptions analyzer;
    ner::NamedEntitySpotter::Options ner;
  };

  AdHocSentimentMiner(const lexicon::SentimentLexicon* lexicon,
                      const lexicon::PatternDatabase* patterns)
      : AdHocSentimentMiner(lexicon, patterns, Config{}) {}
  AdHocSentimentMiner(const lexicon::SentimentLexicon* lexicon,
                      const lexicon::PatternDatabase* patterns,
                      const Config& config);

  // Mines one document (`analysis` describes its body); every named entity
  // in a sentence becomes a subject candidate, and only sentences holding
  // one are parsed. Only non-neutral results are recorded (the index
  // stores sentiment-bearing occurrences). Stateless across documents, so
  // safe to call concurrently for distinct documents.
  void ProcessDocument(const std::string& doc_id, LinguisticAnalysis& analysis,
                       SentimentStore* store) const;

 private:
  SentimentAnalyzer analyzer_;
  ner::NamedEntitySpotter ner_;
};

}  // namespace wf::core

#endif  // WF_CORE_MINER_H_
