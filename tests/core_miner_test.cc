#include <gtest/gtest.h>

#include "core/context.h"
#include "core/miner.h"
#include "core/phrase_sentiment.h"
#include "core/sentiment_store.h"
#include "tests/test_util.h"

namespace wf::core {
namespace {

using lexicon::Polarity;

// --- ContextBuilder ----------------------------------------------------------------

TEST(ContextBuilderTest, FindsContainingSentence) {
  std::vector<text::SentenceSpan> spans{{0, 5}, {5, 12}, {12, 20}};
  ContextBuilder builder;
  SentimentContext ctx;
  ASSERT_TRUE(builder.Build(spans, 7, &ctx));
  EXPECT_EQ(ctx.sentence_index, 1u);
  EXPECT_EQ(ctx.window_begin_token, 5u);
  EXPECT_EQ(ctx.window_end_token, 12u);
}

TEST(ContextBuilderTest, ExtraSentencesWindow) {
  std::vector<text::SentenceSpan> spans{{0, 5}, {5, 12}, {12, 20}};
  ContextBuilder::Options options;
  options.extra_sentences = 1;
  ContextBuilder builder(options);
  SentimentContext ctx;
  ASSERT_TRUE(builder.Build(spans, 7, &ctx));
  EXPECT_EQ(ctx.window_begin_token, 0u);
  EXPECT_EQ(ctx.window_end_token, 20u);
}

TEST(ContextBuilderTest, WindowClampedAtEdges) {
  std::vector<text::SentenceSpan> spans{{0, 5}, {5, 12}};
  ContextBuilder::Options options;
  options.extra_sentences = 3;
  ContextBuilder builder(options);
  SentimentContext ctx;
  ASSERT_TRUE(builder.Build(spans, 0, &ctx));
  EXPECT_EQ(ctx.window_begin_token, 0u);
  EXPECT_EQ(ctx.window_end_token, 12u);
}

TEST(ContextBuilderTest, TokenOutsideEverySentence) {
  std::vector<text::SentenceSpan> spans{{0, 5}};
  ContextBuilder builder;
  SentimentContext ctx;
  EXPECT_FALSE(builder.Build(spans, 9, &ctx));
}

// --- SentimentStore ---------------------------------------------------------------

SentimentMention Mention(const std::string& doc, const std::string& subject,
                         Polarity polarity) {
  SentimentMention m;
  m.doc_id = doc;
  m.subject = subject;
  m.polarity = polarity;
  return m;
}

TEST(SentimentStoreTest, AggregatesBySubject) {
  SentimentStore store;
  store.Add(Mention("d1", "battery", Polarity::kPositive));
  store.Add(Mention("d1", "battery", Polarity::kNegative));
  store.Add(Mention("d2", "battery", Polarity::kPositive));
  store.Add(Mention("d2", "flash", Polarity::kNeutral));

  SentimentAggregate agg = store.ForSubject("battery");
  EXPECT_EQ(agg.positive, 2u);
  EXPECT_EQ(agg.negative, 1u);
  EXPECT_EQ(agg.neutral, 0u);
  EXPECT_NEAR(agg.PositiveShare(), 2.0 / 3.0, 1e-9);
}

TEST(SentimentStoreTest, PageAggregates) {
  SentimentStore store;
  store.Add(Mention("d1", "battery", Polarity::kPositive));
  store.Add(Mention("d1", "battery", Polarity::kPositive));
  store.Add(Mention("d2", "battery", Polarity::kNegative));
  store.Add(Mention("d3", "battery", Polarity::kPositive));
  store.Add(Mention("d3", "battery", Polarity::kNegative));

  SentimentStore::PageAggregate pages = store.PagesForSubject("battery");
  EXPECT_EQ(pages.pages, 3u);
  EXPECT_EQ(pages.pages_positive, 2u);
  EXPECT_EQ(pages.pages_negative, 2u);
}

TEST(SentimentStoreTest, SubjectsSorted) {
  SentimentStore store;
  store.Add(Mention("d", "zoom", Polarity::kPositive));
  store.Add(Mention("d", "battery", Polarity::kPositive));
  EXPECT_EQ(store.Subjects(),
            (std::vector<std::string>{"battery", "zoom"}));
}

TEST(SentimentStoreTest, FindFiltersByPolarity) {
  SentimentStore store;
  store.Add(Mention("d1", "battery", Polarity::kPositive));
  store.Add(Mention("d2", "battery", Polarity::kNegative));
  EXPECT_EQ(store.Find("battery", Polarity::kPositive).size(), 1u);
  EXPECT_EQ(store.Find("battery", Polarity::kNegative).size(), 1u);
  EXPECT_TRUE(store.Find("zoom", Polarity::kPositive).empty());
}

TEST(SentimentStoreTest, EmptyShareIsZero) {
  SentimentAggregate agg;
  EXPECT_NEAR(agg.PositiveShare(), 0.0, 1e-12);
}

// --- SentimentMiner (Mode A) --------------------------------------------------------

class MinerTest : public ::testing::Test {
 protected:
  MinerTest()
      : lexicon_(lexicon::SentimentLexicon::Embedded()),
        patterns_(lexicon::PatternDatabase::Embedded()) {}

  lexicon::SentimentLexicon lexicon_;
  lexicon::PatternDatabase patterns_;
};

TEST_F(MinerTest, MinesRegisteredSubjects) {
  SentimentMiner miner(&lexicon_, &patterns_);
  miner.AddSubject({1, "battery", {"batteries"}});
  miner.AddSubject({2, "flash", {}});

  SentimentStore store;
  miner.ProcessDocument(
      "doc-1",
      *AnalyzeDocument("I bought it in March. The battery is excellent. The "
                       "flash is terrible. Nothing else matters."),
      &store);

  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.ForSubject("battery").positive, 1u);
  EXPECT_EQ(store.ForSubject("flash").negative, 1u);
}

TEST_F(MinerTest, RecordsSentenceTextAndOffsets) {
  SentimentMiner miner(&lexicon_, &patterns_);
  miner.AddSubject({1, "battery", {}});
  SentimentStore store;
  std::string body = "Filler first. The battery is excellent.";
  miner.ProcessDocument("doc-1", *AnalyzeDocument(body), &store);
  ASSERT_EQ(store.size(), 1u);
  const SentimentMention& m = store.mentions()[0];
  EXPECT_EQ(m.sentence_index, 1u);
  EXPECT_EQ(body.substr(m.sentence_begin,
                        m.sentence_end - m.sentence_begin),
            "The battery is excellent.");
  EXPECT_NE(m.sentence_text.find("battery"), std::string::npos);
}

TEST_F(MinerTest, SynonymsRollUpToCanonical) {
  SentimentMiner miner(&lexicon_, &patterns_);
  miner.AddSubject({1, "Sony Corporation", {"Sony"}});
  SentimentStore store;
  miner.ProcessDocument(
      "d", *AnalyzeDocument("Sony impresses everyone who tried it."), &store);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.mentions()[0].subject, "Sony Corporation");
}

TEST_F(MinerTest, NeutralRecordingToggle) {
  SentimentMiner::Config config;
  config.record_neutral = false;
  SentimentMiner miner(&lexicon_, &patterns_, config);
  miner.AddSubject({1, "battery", {}});
  SentimentStore store;
  miner.ProcessDocument(
      "d", *AnalyzeDocument("The battery arrived on Tuesday."), &store);
  EXPECT_EQ(store.size(), 0u);

  SentimentMiner with_neutral(&lexicon_, &patterns_);
  SentimentStore store2;
  with_neutral.AddSubject({1, "battery", {}});
  with_neutral.ProcessDocument(
      "d", *AnalyzeDocument("The battery arrived on Tuesday."), &store2);
  EXPECT_EQ(store2.size(), 1u);
  EXPECT_EQ(store2.mentions()[0].polarity, Polarity::kNeutral);
}

TEST_F(MinerTest, DisambiguatorFiltersOffTopicSpots) {
  SentimentMiner miner(&lexicon_, &patterns_);
  miner.AddSubject({1, "SUN", {"Sun", "sun"}});
  spot::TopicTermSet topic;
  topic.synset_id = 1;
  topic.on_topic = {"oil", "barrel"};
  topic.off_topic = {"weather", "sky"};
  miner.AddTopicTerms(topic);

  spot::CorpusStats stats;
  stats.AddDocument(std::vector<std::string>{"background", "words"});
  miner.SetCorpusStats(&stats);

  SentimentStore store;
  miner.ProcessDocument(
      "d-off",
      *AnalyzeDocument("The sun is wonderful. The weather and sky are clear."),
      &store);
  EXPECT_EQ(store.size(), 0u);  // off-topic spot filtered

  miner.ProcessDocument("d-on",
                        *AnalyzeDocument("SUN is wonderful. Analysts track "
                                         "every oil barrel it sells."),
                        &store);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(MinerTest, FragmentAttributionOptIn) {
  SentimentMiner::Config config;
  config.attribute_fragments = true;
  config.record_neutral = false;
  SentimentMiner miner(&lexicon_, &patterns_, config);
  miner.AddSubject({1, "PowerLine S45", {}});
  SentimentStore store;
  miner.ProcessDocument(
      "d", *AnalyzeDocument("I bought the PowerLine S45 in May. Big mistake."),
      &store);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.mentions()[0].polarity, Polarity::kNegative);
  EXPECT_EQ(store.mentions()[0].source, SentimentSource::kCrossSentence);

  // Positive fragment.
  SentimentStore store2;
  miner.ProcessDocument(
      "d2", *AnalyzeDocument("I bought the PowerLine S45 in May. What a gem."),
      &store2);
  ASSERT_EQ(store2.size(), 1u);
  EXPECT_EQ(store2.mentions()[0].polarity, Polarity::kPositive);
}

TEST_F(MinerTest, FragmentAttributionOffByDefault) {
  SentimentMiner::Config config;
  config.record_neutral = false;
  SentimentMiner miner(&lexicon_, &patterns_, config);
  miner.AddSubject({1, "PowerLine S45", {}});
  SentimentStore store;
  miner.ProcessDocument(
      "d", *AnalyzeDocument("I bought the PowerLine S45 in May. Big mistake."),
      &store);
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(MinerTest, FragmentRuleIgnoresFullSentences) {
  SentimentMiner::Config config;
  config.attribute_fragments = true;
  config.record_neutral = false;
  SentimentMiner miner(&lexicon_, &patterns_, config);
  miner.AddSubject({1, "PowerLine S45", {}});
  SentimentStore store;
  // The follow-up has a predicate (and is about something else): no
  // attribution.
  miner.ProcessDocument("d",
                        *AnalyzeDocument("I bought the PowerLine S45 in May. "
                                         "The weather was terrible."),
                        &store);
  EXPECT_EQ(store.size(), 0u);
}

// --- AdHocSentimentMiner (Mode B) -----------------------------------------------------

TEST_F(MinerTest, AdHocFindsEntitySentiment) {
  AdHocSentimentMiner miner(&lexicon_, &patterns_);
  SentimentStore store;
  miner.ProcessDocument(
      "d",
      *AnalyzeDocument("Kodak impresses everyone who tried it. The weather "
                       "was mild. Lawsuits plague Altona Petroleum."),
      &store);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.ForSubject("Kodak").positive, 1u);
  EXPECT_EQ(store.ForSubject("Altona Petroleum").negative, 1u);
}

TEST_F(MinerTest, AdHocSkipsNeutralEntities) {
  AdHocSentimentMiner miner(&lexicon_, &patterns_);
  SentimentStore store;
  miner.ProcessDocument(
      "d", *AnalyzeDocument("Kodak announced a meeting in June."), &store);
  EXPECT_EQ(store.size(), 0u);
}

// --- PhraseSentimentScorer -------------------------------------------------------------

TEST(PhraseScorerTest, VotesAndNegation) {
  wf::testing::Pipeline pipeline;
  // Use the pipeline only to build a parse we can score against.
  parse::SentenceParse parse =
      pipeline.Parse("The camera has no excellent pictures.");
  text::Tokenizer tokenizer;
  text::TokenStream tokens =
      tokenizer.Tokenize("The camera has no excellent pictures.");
  PhraseSentimentScorer scorer(&pipeline.lexicon());
  // Whole sentence: "no" flips "excellent".
  EXPECT_EQ(scorer.Score(tokens, parse, parse.span.begin_token,
                         parse.span.end_token),
            Polarity::kNegative);
  // Ignoring negation restores the positive vote.
  EXPECT_EQ(scorer.Score(tokens, parse, parse.span.begin_token,
                         parse.span.end_token, SIZE_MAX,
                         /*ignore_negation=*/true),
            Polarity::kPositive);
}

}  // namespace
}  // namespace wf::core
