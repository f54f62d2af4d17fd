#include <gtest/gtest.h>

#include <memory>

#include "common/string_util.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/cluster.h"
#include "platform/corpus_miners.h"
#include "platform/geo_miner.h"
#include "platform/indexer.h"
#include "platform/ingest.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"

namespace wf::platform {
namespace {

Entity Doc(const std::string& id, const std::string& body,
           const std::string& date = "") {
  Entity e(id, "test");
  e.SetBody(body);
  if (!date.empty()) e.SetField("date", date);
  return e;
}

// --- DuplicateDetectionMiner -------------------------------------------------

TEST(DuplicateDetectionTest, FlagsNearDuplicates) {
  DataStore store;
  std::string article =
      "Regulators opened an inquiry into the refinery after the spill. "
      "The cleanup continues along the coast and residents are angry. "
      "Officials promised a full report by the end of the month.";
  // The representative is the first candidate in sorted-id order.
  ASSERT_TRUE(store.Put(Doc("a-orig", article)).ok());
  ASSERT_TRUE(
      store.Put(Doc("b-copy", article + " Reprinted with permission."))
          .ok());
  ASSERT_TRUE(store.Put(Doc("other",
                            "A completely different page about gardening "
                            "and the joys of compost heaps in spring."))
                  .ok());

  DuplicateDetectionMiner miner;
  ASSERT_TRUE(miner.Run(store).ok());
  ASSERT_EQ(miner.duplicates().size(), 1u);
  EXPECT_EQ(miner.duplicates()[0].first, "b-copy");
  EXPECT_EQ(miner.duplicates()[0].second, "a-orig");
  EXPECT_EQ(store.Get("b-copy")->GetField("duplicate_of"), "a-orig");
  EXPECT_FALSE(store.Get("other")->HasField("duplicate_of"));
}

TEST(DuplicateDetectionTest, DistinctDocsNotFlagged) {
  DataStore store;
  ASSERT_TRUE(store.Put(Doc("a", "The battery lasts all day in testing."))
                  .ok());
  ASSERT_TRUE(store.Put(Doc("b", "The orchestra performed the final "
                                 "movement beautifully last night."))
                  .ok());
  DuplicateDetectionMiner miner;
  ASSERT_TRUE(miner.Run(store).ok());
  EXPECT_TRUE(miner.duplicates().empty());
}

TEST(DuplicateDetectionTest, ThresholdControlsSensitivity) {
  DataStore store;
  std::string base =
      "One two three four five six seven eight nine ten eleven twelve "
      "thirteen fourteen fifteen sixteen seventeen eighteen nineteen.";
  ASSERT_TRUE(store.Put(Doc("a", base)).ok());
  ASSERT_TRUE(store.Put(Doc("b", base + " Extra trailing words here to "
                                        "lower the similarity a bit more "
                                        "and a bit more again."))
                  .ok());
  DuplicateDetectionMiner::Options strict;
  strict.threshold = 0.95;
  DuplicateDetectionMiner strict_miner(strict);
  ASSERT_TRUE(strict_miner.Run(store).ok());
  EXPECT_TRUE(strict_miner.duplicates().empty());

  DuplicateDetectionMiner::Options loose;
  loose.threshold = 0.4;
  // A loose verification threshold needs loose LSH banding too, or the
  // candidate pair never forms (collision prob per band is J^rows).
  loose.bands = 16;
  DuplicateDetectionMiner loose_miner(loose);
  ASSERT_TRUE(loose_miner.Run(store).ok());
  EXPECT_EQ(loose_miner.duplicates().size(), 1u);
}

TEST(DuplicateDetectionTest, DeterministicAcrossRuns) {
  DataStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Put(Doc(common::StrFormat("d%d", i),
                              "Shared syndicated body of text that is "
                              "identical across all of these pages."))
                    .ok());
  }
  DuplicateDetectionMiner a, b;
  ASSERT_TRUE(a.Run(store).ok());
  ASSERT_TRUE(b.Run(store).ok());
  EXPECT_EQ(a.duplicates(), b.duplicates());
  EXPECT_EQ(a.duplicates().size(), 9u);  // all map to the first by id
}

// --- AggregateStatsMiner ---------------------------------------------------------

TEST(AggregateStatsTest, CountsDocsTokensVocabulary) {
  DataStore store;
  ASSERT_TRUE(store.Put(Doc("a", "alpha beta gamma.")).ok());
  ASSERT_TRUE(store.Put(Doc("b", "alpha alpha delta.")).ok());
  AggregateStatsMiner miner;
  ASSERT_TRUE(miner.Run(store).ok());
  EXPECT_EQ(miner.stats().documents, 2u);
  EXPECT_EQ(miner.stats().words, 6u);
  EXPECT_EQ(miner.stats().vocabulary, 4u);
  EXPECT_GT(miner.stats().avg_tokens_per_doc, 3.0);
}

TEST(AggregateStatsTest, EmptyStore) {
  DataStore store;
  AggregateStatsMiner miner;
  ASSERT_TRUE(miner.Run(store).ok());
  EXPECT_EQ(miner.stats().documents, 0u);
  EXPECT_NEAR(miner.stats().avg_tokens_per_doc, 0.0, 1e-12);
}

// --- TrendingMiner --------------------------------------------------------------

TEST(TrendingTest, BucketsSentimentByMonth) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  AdHocSentimentMinerPlugin sentiment(&lexicon, &patterns);

  DataStore store;
  // Each doc is mined before it is stored.
  for (Entity e : {Doc("jan", "Analysts admire Veraxin.", "2004-01"),
                   Doc("feb1", "Lawsuits plague Veraxin.", "2004-02"),
                   Doc("feb2", "Regulators condemn Veraxin.", "2004-02"),
                   Doc("undated", "Analysts admire Veraxin.")}) {
    ASSERT_TRUE(sentiment.Process(e, {*core::AnalyzeDocument(e.body())}).ok());
    ASSERT_TRUE(store.Put(std::move(e)).ok());
  }

  TrendingMiner miner;
  ASSERT_TRUE(miner.Run(store).ok());
  std::vector<TrendingMiner::Bucket> trend = miner.TrendFor("Veraxin");
  ASSERT_EQ(trend.size(), 2u);  // undated doc excluded
  EXPECT_EQ(trend[0].month, "2004-01");
  EXPECT_EQ(trend[0].positive, 1u);
  EXPECT_EQ(trend[0].negative, 0u);
  EXPECT_EQ(trend[1].month, "2004-02");
  EXPECT_EQ(trend[1].negative, 2u);
  EXPECT_EQ(miner.Subjects(), (std::vector<std::string>{"veraxin"}));
}

TEST(TrendingTest, UnknownSubjectEmpty) {
  TrendingMiner miner;
  DataStore store;
  ASSERT_TRUE(miner.Run(store).ok());
  EXPECT_TRUE(miner.TrendFor("nothing").empty());
}

// --- GeoContextMiner --------------------------------------------------------------

TEST(GeoMinerTest, SpotsRegionsAndEmitsConcepts) {
  GeoContextMiner miner;
  Entity e = Doc("geo", "The rig operates in the Gulf of Mexico while "
                        "headquarters remain in Houston.");
  ASSERT_TRUE(miner.Process(e, {*core::AnalyzeDocument(e.body())}).ok());
  const auto* spans = e.GetAnnotations("geo");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->size(), 2u);
  // One concept token per distinct region.
  EXPECT_EQ(e.concept_tokens().size(), 2u);
  EXPECT_NE(std::find(e.concept_tokens().begin(), e.concept_tokens().end(),
                      "geo/gulf_of_mexico"),
            e.concept_tokens().end());
  EXPECT_NE(std::find(e.concept_tokens().begin(), e.concept_tokens().end(),
                      "geo/texas"),
            e.concept_tokens().end());
}

TEST(GeoMinerTest, NoRegionsNoAnnotations) {
  GeoContextMiner miner;
  Entity e = Doc("plain", "The battery is excellent.");
  ASSERT_TRUE(miner.Process(e, {*core::AnalyzeDocument(e.body())}).ok());
  EXPECT_EQ(e.GetAnnotations("geo"), nullptr);
  EXPECT_TRUE(e.concept_tokens().empty());
}

TEST(GeoMinerTest, ConceptTokenFormat) {
  EXPECT_EQ(GeoContextMiner::GeoConceptToken("Gulf of Mexico"),
            "geo/gulf_of_mexico");
}

// --- Index range/regex ---------------------------------------------------------------

TEST(IndexRangeTest, NumericFieldsAutoIndexed) {
  InvertedIndex index;
  Entity a = Doc("a", "body", "2004-03");
  a.SetField("score", "7.5");
  index.IndexEntity(a);
  Entity b = Doc("b", "body", "2004-06-15");
  b.SetField("score", "2");
  index.IndexEntity(b);

  EXPECT_EQ(index.Range("score", 5.0, 10.0),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(index.Range("score", 0.0, 10.0),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(index.Range("date", 20040101, 20040401),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(index.Range("date", 20040601, 20040630),
            (std::vector<std::string>{"b"}));
  EXPECT_TRUE(index.Range("missing", 0, 1).empty());
}

TEST(IndexRangeTest, OnlyIsoDatesAreRegistered) {
  InvertedIndex index;
  index.IndexEntity(Doc("month", "body", "2004-03"));
  index.IndexEntity(Doc("day", "body", "2004-06-15"));
  index.IndexEntity(Doc("time", "body", "2004-05-10T12:00"));
  const std::vector<std::string> malformed = {
      "2005-xx",    "n/a-n/a",    "2004-13-99", "2004-00",     "2004-06-32",
      "2004-06-00", "2004-6-15",  "2004",       "20040615",    "2004-06-15x",
      "2004-06T12", " 2004-06",   "2004-06-",   "2004-06-1.5", "-2004-06"};
  for (size_t i = 0; i < malformed.size(); ++i) {
    index.IndexEntity(
        Doc(common::StrFormat("bad-%02zu", i), "body", malformed[i]));
  }
  EXPECT_EQ(index.Range("date", -1e18, 1e18),
            (std::vector<std::string>{"day", "month", "time"}));
  EXPECT_EQ(index.Range("date", 20040301, 20040301),
            (std::vector<std::string>{"month"}));
  EXPECT_EQ(index.Range("date", 20040510, 20040510),
            (std::vector<std::string>{"time"}));
}

TEST(IndexRangeTest, NonNumericFieldsIgnored) {
  InvertedIndex index;
  Entity a = Doc("a", "body");
  a.SetField("url", "http://x");
  index.IndexEntity(a);
  EXPECT_TRUE(index.Range("url", 0, 1e18).empty());
}

TEST(IndexRegexTest, MatchesVocabulary) {
  InvertedIndex index;
  index.IndexEntity(Doc("a", "the battery and the batteries"));
  index.IndexEntity(Doc("b", "a butterfly"));
  EXPECT_EQ(index.MatchRegex("batter(y|ies)"),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(index.MatchRegex("b.*y"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(index.MatchRegex("zzz+").empty());
}

TEST(IndexRegexTest, BadPatternReturnsEmpty) {
  InvertedIndex index;
  index.IndexEntity(Doc("a", "text"));
  EXPECT_TRUE(index.MatchRegex("([unclosed").empty());
}

// --- RuntimeSentimentQueryService ----------------------------------------------------

TEST(RuntimeQueryTest, AgreesWithOfflineService) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  Cluster cluster(2);
  BatchIngestor ingestor(
      "t", {{"d1", "Analysts admire Veraxin."},
            {"d2", "Lawsuits plague Veraxin."},
            {"d3", "Veraxin shines in independent tests."},
            {"d4", "Nothing about the subject here."}});
  IngestAll(ingestor, cluster);
  cluster.DeployMiner([&lexicon, &patterns] {
    return std::make_unique<AdHocSentimentMinerPlugin>(&lexicon, &patterns);
  });
  cluster.MineAndIndexAll();

  SentimentQueryService offline(&cluster);
  RuntimeSentimentQueryService runtime(&cluster, &lexicon, &patterns);
  SentimentQueryResult a = offline.Query("Veraxin");
  SentimentQueryResult b = runtime.Query("Veraxin");
  EXPECT_EQ(a.positive_docs, b.positive_docs);
  EXPECT_EQ(a.negative_docs, b.negative_docs);
  EXPECT_EQ(a.positive_docs, 2u);
  EXPECT_EQ(a.negative_docs, 1u);
}

TEST(RuntimeQueryTest, UnknownSubjectEmpty) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  Cluster cluster(1);
  BatchIngestor ingestor("t", {{"d1", "Some text."}});
  IngestAll(ingestor, cluster);
  cluster.MineAndIndexAll();
  RuntimeSentimentQueryService runtime(&cluster, &lexicon, &patterns);
  SentimentQueryResult r = runtime.Query("Ghost Product");
  EXPECT_EQ(r.positive_docs + r.negative_docs, 0u);
}

}  // namespace
}  // namespace wf::platform
