// Reproduces Figure 4: the GUI roll-up of sentiment mining results on
// general web pages of the pharmaceutical domain — per product, how many
// pages carry positive vs negative sentiment (product names masked, as the
// paper's screenshots mask them).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "core/miner.h"
#include "corpus/datasets.h"
#include "eval/report.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"

int main() {
  using namespace wf;
  const uint64_t seed = bench::BenchSeed();
  corpus::WebDataset pharma = corpus::BuildPharmaWebDataset(seed + 2);

  lexicon::SentimentLexicon lex = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  core::SentimentMiner::Config config;
  config.record_neutral = false;
  core::SentimentMiner miner(&lex, &patterns, config);
  int id = 0;
  for (const corpus::Product& p : pharma.domain->products) {
    spot::SynonymSet set;
    set.id = id++;
    set.canonical = p.name;
    set.variants = p.variants;
    miner.AddSubject(set);
  }

  core::SentimentStore store;
  for (const corpus::GeneratedDoc& doc : pharma.docs) {
    miner.ProcessDocument(doc.id, *core::AnalyzeDocument(doc.body), &store);
  }

  std::printf("%s", eval::Banner("Figure 4 — per-product sentiment roll-up "
                                 "(pharmaceutical web pages)")
                        .c_str());
  eval::TablePrinter table({"Product", "Pages w/ sentiment", "Positive",
                            "Negative", "Positive share"});
  int masked = 1;
  for (const std::string& subject : store.Subjects()) {
    core::SentimentStore::PageAggregate pages =
        store.PagesForSubject(subject);
    core::SentimentAggregate agg = store.ForSubject(subject);
    std::string bar;
    int width = static_cast<int>(agg.PositiveShare() * 20.0);
    for (int i = 0; i < 20; ++i) bar += (i < width) ? '#' : '.';
    table.AddRow({common::StrFormat("Product %d", masked++),
                  std::to_string(pages.pages),
                  std::to_string(pages.pages_positive),
                  std::to_string(pages.pages_negative),
                  common::StrFormat("%s %.0f%%", bar.c_str(),
                                    agg.PositiveShare() * 100.0)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("(Product names masked as in the paper's screenshots.)\n");
  return 0;
}
