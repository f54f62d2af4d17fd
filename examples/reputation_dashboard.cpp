// Reputation management (Mode A, Figure 2): mine a review corpus for a
// *predefined* set of subjects — products and their feature terms — and
// print the dashboards a brand manager would read: overall product
// reputation, per-feature strengths/weaknesses, and example quotes.
//
//   $ ./reputation_dashboard

#include <cstdio>

#include "common/string_util.h"
#include <string>
#include <vector>

#include "core/miner.h"
#include "core/sentiment_store.h"
#include "corpus/datasets.h"
#include "eval/report.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"

int main() {
  using namespace wf;

  corpus::ReviewDataset camera = corpus::BuildCameraDataset(/*seed=*/42);
  const corpus::DomainVocab& domain = *camera.domain;

  lexicon::SentimentLexicon lexicon = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();

  core::SentimentMiner::Config config;
  config.record_neutral = false;
  core::SentimentMiner miner(&lexicon, &patterns, config);

  // Subjects: every product (with brand variants) and every feature term.
  int id = 0;
  for (const corpus::Product& p : domain.products) {
    spot::SynonymSet set;
    set.id = id++;
    set.canonical = p.name;
    set.variants = p.variants;
    miner.AddSubject(set);
  }
  for (const std::string& f : domain.features) {
    spot::SynonymSet set;
    set.id = id++;
    set.canonical = f;
    if (f.find(' ') == std::string::npos && f.back() != 's') {
      set.variants.push_back(f + "s");
    }
    miner.AddSubject(set);
  }

  core::SentimentStore store;
  for (const corpus::GeneratedDoc& doc : camera.d_plus) {
    miner.ProcessDocument(doc.id, *core::AnalyzeDocument(doc.body), &store);
  }
  std::printf("Mined %zu review pages -> %zu sentiment mentions.\n\n",
              camera.d_plus.size(), store.size());

  // Dashboard 1: product reputation.
  std::printf("%s", eval::Banner("Product reputation").c_str());
  eval::TablePrinter products({"Product", "Mentions", "+", "-", "Share"});
  for (const corpus::Product& p : domain.products) {
    core::SentimentAggregate agg = store.ForSubject(p.name);
    if (agg.total() == 0) continue;
    products.AddRow({p.name, std::to_string(agg.total()),
                     std::to_string(agg.positive),
                     std::to_string(agg.negative),
                     common::StrFormat("%.0f%%", agg.PositiveShare() * 100)});
  }
  std::printf("%s\n", products.ToString().c_str());

  // Dashboard 2: feature strengths and weaknesses.
  std::printf("%s", eval::Banner("Feature strengths / weaknesses").c_str());
  eval::TablePrinter features({"Feature", "Mentions", "+", "-", "Share"});
  for (const std::string& f : domain.features) {
    core::SentimentAggregate agg = store.ForSubject(f);
    if (agg.total() < 20) continue;
    features.AddRow({f, std::to_string(agg.total()),
                     std::to_string(agg.positive),
                     std::to_string(agg.negative),
                     common::StrFormat("%.0f%%", agg.PositiveShare() * 100)});
  }
  std::printf("%s\n", features.ToString().c_str());

  // Dashboard 3: example quotes for one feature.
  const std::string feature = "battery";
  std::printf("%s", eval::Banner("What reviewers say about: " + feature)
                        .c_str());
  int shown = 0;
  for (const core::SentimentMention* m :
       store.Find(feature, lexicon::Polarity::kNegative)) {
    if (shown++ >= 5) break;
    std::printf("  [-] \"%s\"  (%s)\n", m->sentence_text.c_str(),
                m->doc_id.c_str());
  }
  shown = 0;
  for (const core::SentimentMention* m :
       store.Find(feature, lexicon::Polarity::kPositive)) {
    if (shown++ >= 5) break;
    std::printf("  [+] \"%s\"  (%s)\n", m->sentence_text.c_str(),
                m->doc_id.c_str());
  }
  return 0;
}
