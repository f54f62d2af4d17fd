// Reproduces the Figure 2 inset chart, "Digital Camera Customer
// Satisfaction": for each product, the percentage of its review pages that
// contain a positive sentiment about picture quality, battery, and flash —
// the end-user analytics view the reputation application renders.

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "core/miner.h"
#include "corpus/datasets.h"
#include "eval/report.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "spot/spotter.h"
#include "text/tokenizer.h"

int main() {
  using namespace wf;
  const uint64_t seed = bench::BenchSeed();
  corpus::ReviewDataset camera = corpus::BuildCameraDataset(seed);
  const corpus::DomainVocab& domain = *camera.domain;

  const std::vector<std::string> kFeatures = {"picture quality", "battery",
                                              "flash"};

  lexicon::SentimentLexicon lex = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  core::SentimentMiner::Config config;
  config.record_neutral = false;
  core::SentimentMiner miner(&lex, &patterns, config);
  int id = 0;
  for (const std::string& f : kFeatures) {
    spot::SynonymSet set;
    set.id = id++;
    set.canonical = f;
    if (f.find(' ') == std::string::npos) set.variants.push_back(f + "s");
    miner.AddSubject(set);
  }

  // Which product each review page is about (by spotting product names).
  spot::Spotter product_spotter;
  std::map<int, std::string> product_of_set;
  int pid = 0;
  for (const corpus::Product& p : domain.products) {
    spot::SynonymSet set;
    set.id = pid;
    set.canonical = p.name;
    set.variants = p.variants;
    product_of_set[pid] = p.name;
    product_spotter.AddSynonymSet(set);
    ++pid;
  }

  text::Tokenizer tokenizer;
  // product -> (pages, pages with positive mention of feature f)
  std::map<std::string, size_t> pages;
  std::map<std::string, std::map<std::string, size_t>> positive_pages;

  core::SentimentStore store;
  std::map<std::string, std::string> doc_product;
  for (const corpus::GeneratedDoc& doc : camera.d_plus) {
    text::TokenStream tokens = tokenizer.Tokenize(doc.body);
    std::vector<spot::SubjectSpot> spots = product_spotter.Spot(tokens);
    if (spots.empty()) continue;
    const std::string& product = product_of_set[spots[0].synset_id];
    doc_product[doc.id] = product;
    ++pages[product];
    miner.ProcessDocument(doc.id, *core::AnalyzeDocument(doc.body), &store);
  }
  std::set<std::string> seen;  // one count per (product, feature, page)
  for (const std::string& f : kFeatures) {
    for (const core::SentimentMention* m :
         store.Find(f, lexicon::Polarity::kPositive)) {
      auto it = doc_product.find(m->doc_id);
      if (it == doc_product.end()) continue;
      std::string key = it->second + "|" + f + "|" + m->doc_id;
      if (seen.insert(key).second) ++positive_pages[it->second][f];
    }
  }

  std::printf("%s", eval::Banner("Figure 2 — digital camera customer "
                                 "satisfaction (% pages with positive "
                                 "sentiment)")
                        .c_str());
  eval::TablePrinter table(
      {"Product", "Pages", "picture quality", "battery", "flash"});
  int masked = 1;
  for (const auto& [product, n] : pages) {
    std::vector<std::string> row;
    row.push_back(common::StrFormat("Product %d", masked++));
    row.push_back(std::to_string(n));
    for (const std::string& f : kFeatures) {
      size_t pos = positive_pages[product][f];
      row.push_back(common::StrFormat(
          "%5.1f%%", 100.0 * static_cast<double>(pos) /
                         static_cast<double>(n)));
    }
    table.AddRow(row);
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("(Product names masked as in the paper's figures.)\n");
  return 0;
}
