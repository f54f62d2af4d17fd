// Byte-identity for the arena-backed analysis front half: the mining sweep
// over a seeded corpus must produce exactly the bytes the pre-arena
// implementation produced (golden fingerprint captured before Token/
// LinguisticAnalysis moved onto the bump arena), at every thread count.
// This is the determinism contract of DESIGN.md §10 extended across the
// allocation-strategy change: arenas and interning must be invisible in
// the output.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "core/analysis.h"
#include "corpus/datasets.h"
#include "gtest/gtest.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/data_store.h"
#include "platform/entity.h"
#include "platform/mine_executor.h"
#include "platform/miner_framework.h"
#include "platform/sentiment_miner_plugin.h"
#include "pos/tagger.h"

namespace wf {
namespace {

// Fingerprint of the post-sweep store bytes, captured on the pre-arena
// implementation (PR 9 tree) with the exact corpus + pipeline below. Any
// behavioural drift in tokenize/POS/parse/mining — however subtle — moves
// this value.
constexpr uint64_t kPreArenaGolden = 0x935efd0de23c07d0ULL;

const lexicon::SentimentLexicon& Lexicon() {
  static const lexicon::SentimentLexicon* const lexicon =
      new lexicon::SentimentLexicon(lexicon::SentimentLexicon::Embedded());
  return *lexicon;
}

const lexicon::PatternDatabase& Patterns() {
  static const lexicon::PatternDatabase* const patterns =
      new lexicon::PatternDatabase(lexicon::PatternDatabase::Embedded());
  return *patterns;
}

// Mines the seeded petroleum+pharma web corpus on `threads` workers
// (0 = sequential path, no executor) and returns the FNV-1a fingerprint of
// the saved store bytes.
uint64_t SweepFingerprint(size_t threads) {
  corpus::WebDataset petro = corpus::BuildPetroleumWebDataset(9001);
  corpus::WebDataset pharma = corpus::BuildPharmaWebDataset(9002);

  platform::DataStore store;
  for (const auto* dataset : {&petro, &pharma}) {
    for (const corpus::GeneratedDoc& d : dataset->docs) {
      platform::Entity e(d.id, "crawl");
      e.SetBody(d.body);
      EXPECT_TRUE(store.Put(std::move(e)).ok());
    }
  }

  platform::MinerPipeline pipeline;
  pipeline.AddMiner(std::make_unique<platform::SentenceBoundaryMiner>());
  pipeline.AddMiner(std::make_unique<platform::TokenStatsMiner>());
  pipeline.AddMiner(std::make_unique<platform::AdHocSentimentMinerPlugin>(
      &Lexicon(), &Patterns()));
  if (threads == 0) {
    pipeline.ProcessStore(store);
  } else {
    platform::MineExecutor pool(
        platform::MineExecutorOptions{.threads = threads});
    pipeline.ProcessStore(store, &pool);
  }

  const std::string path = common::StrFormat(
      "/tmp/wf_arena_identity_%zu_%d.snap", threads, ::getpid());
  EXPECT_TRUE(store.Save(path).ok());
  auto bytes = common::ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  std::filesystem::remove(path);
  return bytes.ok() ? common::Fnv1a64(bytes.value()) : 0;
}

TEST(ArenaIdentityTest, MiningBytesMatchPreArenaGoldenAtEveryThreadCount) {
  for (size_t threads : {0, 1, 2, 4, 8}) {
    const uint64_t fp = SweepFingerprint(threads);
    std::printf("threads=%zu fingerprint=0x%016llx\n", threads,
                static_cast<unsigned long long>(fp));
    EXPECT_EQ(fp, kPreArenaGolden) << "threads=" << threads;
  }
}

void ExpectSameParse(const parse::SentenceParse& lazy,
                     const parse::SentenceParse& direct) {
  EXPECT_EQ(lazy.span.begin_token, direct.span.begin_token);
  EXPECT_EQ(lazy.span.end_token, direct.span.end_token);
  EXPECT_EQ(lazy.chunks, direct.chunks);
  EXPECT_EQ(lazy.tags, direct.tags);
  EXPECT_EQ(lazy.predicate_chunk, direct.predicate_chunk);
  EXPECT_EQ(lazy.predicate_lemma, direct.predicate_lemma);
  EXPECT_EQ(lazy.subject_chunk, direct.subject_chunk);
  EXPECT_EQ(lazy.object_chunk, direct.object_chunk);
  EXPECT_EQ(lazy.complement_chunk, direct.complement_chunk);
  ASSERT_EQ(lazy.pps.size(), direct.pps.size());
  for (size_t i = 0; i < lazy.pps.size(); ++i) {
    EXPECT_EQ(lazy.pps[i].preposition, direct.pps[i].preposition);
    EXPECT_EQ(lazy.pps[i].np_chunk, direct.pps[i].np_chunk);
  }
  EXPECT_EQ(lazy.vp_negated, direct.vp_negated);
}

// The lazy artifact computes each sentence's tags and clauses on first use.
// Forced in reverse order — so no sentence is parsed in its eager position
// — they must equal the tagger and parser run directly, field by field.
TEST(LazyAnalysisTest, ForcedSentencesMatchTheStagesRunDirectly) {
  const pos::PosTagger tagger;
  const parse::SentenceAnalyzer analyzer;
  size_t sentences = 0;
  for (const corpus::GeneratedDoc& d :
       corpus::BuildPetroleumWebDataset(9001).docs) {
    std::unique_ptr<core::LinguisticAnalysis> analysis =
        core::AnalyzeDocument(d.body);
    common::Arena arena;
    common::StringInterner interner(&arena);
    for (size_t s = analysis->sentences.size(); s-- > 0;) {
      const text::SentenceSpan& span = analysis->sentences[s];
      const std::vector<pos::PosTag> tags =
          tagger.TagSentence(analysis->tokens, span);
      const std::vector<parse::SentenceParse> clauses =
          analyzer.AnalyzeClauses(analysis->tokens, span, tags, &interner);
      const std::vector<parse::SentenceParse>& lazy = analysis->Clauses(s);
      EXPECT_EQ(analysis->Tags(s), tags);
      ASSERT_EQ(lazy.size(), clauses.size()) << d.id << " sentence " << s;
      for (size_t c = 0; c < clauses.size(); ++c) {
        ExpectSameParse(lazy[c], clauses[c]);
      }
      ++sentences;
    }
  }
  EXPECT_GT(sentences, 1000u);
}

// Tokenizing and splitting intern nothing: until a miner asks for a
// clause, the arena holds only the body copy.
TEST(LazyAnalysisTest, ArenaHoldsOnlyTheBodyUntilAClauseIsAskedFor) {
  const std::string body =
      "The rig was improved by the crew. Analysts praise Altona Petroleum.";
  std::unique_ptr<core::LinguisticAnalysis> analysis =
      core::AnalyzeDocument(body);
  ASSERT_EQ(analysis->sentences.size(), 2u);
  EXPECT_EQ(analysis->arena.bytes_used(), body.size());
  ASSERT_FALSE(analysis->Tags(1).empty());
  EXPECT_EQ(analysis->arena.bytes_used(), body.size());
  EXPECT_EQ(analysis->ClauseAt(1, 0).predicate_lemma, "praise");
  EXPECT_GT(analysis->arena.bytes_used(), body.size());
}

}  // namespace
}  // namespace wf
