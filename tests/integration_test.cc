// Cross-module integration tests: the paper's qualitative claims must hold
// on (small) end-to-end runs — who wins, in which direction, and by a
// meaningful margin. The full-size reproductions live in bench/.

#include <gtest/gtest.h>

#include <memory>

#include "baseline/reviewseer.h"
#include "corpus/datasets.h"
#include "corpus/review_gen.h"
#include "corpus/web_gen.h"
#include "eval/evaluator.h"
#include "feature/feature_extractor.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/cluster.h"
#include "platform/ingest.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"

namespace wf {
namespace {

using lexicon::Polarity;

class IntegrationTest : public ::testing::Test {
 protected:
  // Function-local statics share the (expensive) corpus across the suite
  // without SetUpTestSuite's leaked raw pointers.
  static const std::vector<corpus::GeneratedDoc>& reviews() {
    static const std::vector<corpus::GeneratedDoc> kReviews =
        corpus::GenerateReviews(corpus::CameraDomain(), 120, 42);
    return kReviews;
  }
  static eval::GoldEvaluator& evaluator() {
    static eval::GoldEvaluator kEvaluator;
    return kEvaluator;
  }
};

TEST_F(IntegrationTest, MinerPrecisionFarAboveCollocation) {
  eval::EvalOptions options;
  eval::Confusion sm = evaluator().EvaluateMiner(reviews(), options);
  eval::Confusion colloc =
      evaluator().EvaluateCollocation(reviews(), options);
  EXPECT_GT(sm.precision(), 0.8);
  EXPECT_LT(colloc.precision(), 0.4);
  EXPECT_GT(sm.precision(), colloc.precision() + 0.4);
}

TEST_F(IntegrationTest, CollocationRecallAboveMiner) {
  eval::EvalOptions options;
  eval::Confusion sm = evaluator().EvaluateMiner(reviews(), options);
  eval::Confusion colloc =
      evaluator().EvaluateCollocation(reviews(), options);
  EXPECT_GT(colloc.recall(), sm.recall());
}

TEST_F(IntegrationTest, MinerAccuracyHighOnReviews) {
  eval::Confusion sm =
      evaluator().EvaluateMiner(reviews(), eval::EvalOptions{});
  EXPECT_GT(sm.accuracy(), 0.8);
  EXPECT_GT(sm.recall(), 0.45);
  EXPECT_LT(sm.recall(), 0.75);  // B-class cases bound recall by design
}

TEST_F(IntegrationTest, ReviewSeerStrongOnReviewsWeakOnWeb) {
  // Train on reviews.
  std::vector<corpus::GeneratedDoc> train =
      corpus::GenerateReviews(corpus::CameraDomain(), 150, 77);
  baseline::ReviewSeerClassifier rs;
  for (const corpus::GeneratedDoc& d : train) {
    rs.AddTrainingDocument(d.body, d.doc_polarity);
  }
  rs.Train();

  eval::Confusion doc_level =
      evaluator().EvaluateReviewSeerDocuments(rs, reviews());
  EXPECT_GT(doc_level.accuracy(), 0.75);

  corpus::WebDataset web = corpus::BuildPetroleumWebDataset(55);
  eval::EvalOptions candidates;
  candidates.only_sentiment_candidates = true;
  eval::Confusion web_level = evaluator().EvaluateReviewSeerSentences(
      rs, web.docs, /*binary=*/true, candidates);
  // The collapse: doc-level review accuracy far above per-sentence web
  // accuracy (paper: 88.4% -> 38%).
  EXPECT_GT(doc_level.accuracy(), web_level.accuracy() + 0.3);

  // Removing I-class cases helps substantially (paper: 38% -> 68%).
  eval::EvalOptions no_i = candidates;
  no_i.skip_i_class = true;
  eval::Confusion web_no_i = evaluator().EvaluateReviewSeerSentences(
      rs, web.docs, true, no_i);
  EXPECT_GT(web_no_i.accuracy(), web_level.accuracy() + 0.2);
}

TEST_F(IntegrationTest, MinerHoldsUpOnWebWhereReviewSeerCollapses) {
  corpus::WebDataset web = corpus::BuildPharmaWebDataset(66);
  eval::Confusion sm =
      evaluator().EvaluateMiner(web.docs, eval::EvalOptions{});
  EXPECT_GT(sm.accuracy(), 0.85);
  EXPECT_GT(sm.precision(), 0.8);
}

TEST_F(IntegrationTest, FeatureExtractionPrecisionHigh) {
  feature::FeatureExtractor extractor;
  for (const corpus::GeneratedDoc& d : reviews()) {
    extractor.AddDocument(d.body, true);
  }
  for (const corpus::GeneratedDoc& d :
       corpus::GenerateOffTopicDocs(300, 43)) {
    extractor.AddDocument(d.body, false);
  }
  std::vector<feature::FeatureTerm> terms = extractor.Extract();
  ASSERT_GT(terms.size(), 10u);

  const auto& gold = corpus::CameraDomain().features;
  size_t correct = 0;
  for (const feature::FeatureTerm& t : terms) {
    if (std::find(gold.begin(), gold.end(), t.phrase) != gold.end()) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / terms.size(), 0.9);
}

TEST_F(IntegrationTest, ModeBPipelineAgreesWithModeA) {
  // Mode A (predefined subjects) and Mode B (ad-hoc via NER + index) must
  // broadly agree on product-level polarity counts.
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  corpus::WebDataset web = corpus::BuildPetroleumWebDataset(88);

  // Mode A.
  core::SentimentMiner::Config config;
  config.record_neutral = false;
  core::SentimentMiner miner(&lexicon, &patterns, config);
  int id = 0;
  for (const corpus::Product& p : web.domain->products) {
    miner.AddSubject({id++, p.name, p.variants});
  }
  core::SentimentStore store;
  for (const corpus::GeneratedDoc& d : web.docs) {
    miner.ProcessDocument(d.id, *core::AnalyzeDocument(d.body), &store);
  }

  // Mode B through the platform.
  platform::Cluster cluster(2);
  std::vector<std::pair<std::string, std::string>> docs;
  for (const corpus::GeneratedDoc& d : web.docs) {
    docs.emplace_back(d.id, d.body);
  }
  platform::BatchIngestor ingestor("web", std::move(docs));
  platform::IngestAll(ingestor, cluster);
  cluster.DeployMiner([&lexicon, &patterns] {
    return std::make_unique<platform::AdHocSentimentMinerPlugin>(&lexicon,
                                                                 &patterns);
  });
  cluster.MineAndIndexAll();
  platform::SentimentQueryService service(&cluster);
  ASSERT_TRUE(service.RegisterService().ok());

  for (const corpus::Product& p : web.domain->products) {
    core::SentimentStore::PageAggregate a = store.PagesForSubject(p.name);
    platform::SentimentQueryResult b = service.Query(p.name);
    if (a.pages_positive + a.pages_negative == 0) continue;
    // Same direction (both modes agree who leans positive), allowing NER
    // coverage differences.
    double share_a =
        static_cast<double>(a.pages_positive) /
        static_cast<double>(a.pages_positive + a.pages_negative);
    double share_b =
        static_cast<double>(b.positive_docs) /
        static_cast<double>(b.positive_docs + b.negative_docs);
    EXPECT_NEAR(share_a, share_b, 0.25) << p.name;
  }
}

TEST_F(IntegrationTest, AblationNegationMattersForPrecision) {
  eval::EvalOptions with;
  eval::EvalOptions without;
  without.analyzer.handle_negation = false;
  eval::Confusion c_with = evaluator().EvaluateMiner(reviews(), with);
  eval::Confusion c_without =
      evaluator().EvaluateMiner(reviews(), without);
  EXPECT_GT(c_with.precision(), c_without.precision());
}

}  // namespace
}  // namespace wf
