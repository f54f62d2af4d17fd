// The complete Figure 2 loop: feature terms are NOT given by the end user —
// the feature extractor discovers them from the review collection (§4.1),
// they are registered as subjects alongside the products, and the sentiment
// miner runs over the corpus. This is the "automatically identified by the
// feature extractor" path of the paper's Mode A.
//
//   $ ./auto_reputation

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "core/miner.h"
#include "corpus/datasets.h"
#include "eval/report.h"
#include "feature/feature_extractor.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"

int main() {
  using namespace wf;

  corpus::ReviewDataset camera = corpus::BuildCameraDataset(/*seed=*/42);

  // Step 1 (§4.1): discover the feature vocabulary from D+ vs D-.
  feature::FeatureExtractor extractor;
  for (const corpus::GeneratedDoc& d : camera.d_plus) {
    extractor.AddDocument(d.body, /*on_topic=*/true);
  }
  for (const corpus::GeneratedDoc& d : camera.d_minus) {
    extractor.AddDocument(d.body, /*on_topic=*/false);
  }
  std::vector<feature::FeatureTerm> features = extractor.Extract();
  std::printf("Discovered %zu feature terms from %zu on-topic / %zu "
              "off-topic documents (bBNP + likelihood ratio).\n\n",
              features.size(), extractor.on_topic_docs(),
              extractor.off_topic_docs());

  // Step 2: register products (user-given) + discovered features as
  // spotter subjects.
  lexicon::SentimentLexicon lexicon = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  core::SentimentMiner::Config config;
  config.record_neutral = false;
  core::SentimentMiner miner(&lexicon, &patterns, config);
  int id = 0;
  for (const corpus::Product& p : camera.domain->products) {
    spot::SynonymSet set;
    set.id = id++;
    set.canonical = p.name;
    set.variants = p.variants;
    miner.AddSubject(set);
  }
  for (const feature::FeatureTerm& f : features) {
    spot::SynonymSet set;
    set.id = id++;
    set.canonical = f.phrase;
    if (f.phrase.find(' ') == std::string::npos &&
        f.phrase.back() != 's') {
      set.variants.push_back(f.phrase + "s");
    }
    miner.AddSubject(set);
  }

  // Step 3: mine the corpus.
  core::SentimentStore store;
  for (const corpus::GeneratedDoc& d : camera.d_plus) {
    miner.ProcessDocument(d.id, *core::AnalyzeDocument(d.body), &store);
  }
  std::printf("Mined %zu sentiment mentions across %zu pages.\n\n",
              store.size(), camera.d_plus.size());

  // Step 4: the analyst view — discovered features ranked by negativity
  // (the "individual weaknesses ... perhaps more valuable than the overall
  // satisfaction level" of §1.2).
  std::printf("%s", eval::Banner("Discovered features, worst first")
                        .c_str());
  struct Row {
    std::string feature;
    core::SentimentAggregate agg;
  };
  std::vector<Row> rows;
  for (const feature::FeatureTerm& f : features) {
    core::SentimentAggregate agg = store.ForSubject(f.phrase);
    if (agg.positive + agg.negative < 10) continue;
    rows.push_back(Row{f.phrase, agg});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.agg.PositiveShare() < b.agg.PositiveShare();
  });
  eval::TablePrinter table({"Feature", "+", "-", "Positive share"});
  for (const Row& r : rows) {
    table.AddRow({r.feature, std::to_string(r.agg.positive),
                  std::to_string(r.agg.negative),
                  common::StrFormat("%.0f%%",
                                    r.agg.PositiveShare() * 100.0)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
