// Failure-injection and hostile-input tests: the pipeline must degrade
// gracefully (empty results, error Status) rather than crash or corrupt
// state, whatever the input.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/durable_file.h"
#include "common/rng.h"
#include "core/miner.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/indexer.h"
#include "platform/vinci.h"
#include "store/index_segment.h"
#include "store/varint.h"

namespace wf {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest()
      : lexicon_(lexicon::SentimentLexicon::Embedded()),
        patterns_(lexicon::PatternDatabase::Embedded()) {}

  lexicon::SentimentLexicon lexicon_;
  lexicon::PatternDatabase patterns_;
};

// --- Hostile miner inputs -------------------------------------------------------

TEST_F(RobustnessTest, MinerSurvivesEmptyAndDegenerateBodies) {
  core::SentimentMiner miner(&lexicon_, &patterns_);
  miner.AddSubject({1, "battery", {}});
  core::SentimentStore store;
  for (const char* body :
       {"", ".", "...", "!!!!", "battery", "battery.", ". . . .",
        "the the the the", "battery battery battery battery battery"}) {
    miner.ProcessDocument("d", *core::AnalyzeDocument(body), &store);
  }
  SUCCEED();
}

TEST_F(RobustnessTest, MinerSurvivesRandomBytes) {
  core::SentimentMiner miner(&lexicon_, &patterns_);
  miner.AddSubject({1, "battery", {}});
  core::SentimentStore store;
  common::Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    std::string body;
    size_t len = static_cast<size_t>(rng.Uniform(0, 400));
    for (size_t i = 0; i < len; ++i) {
      // Printable ASCII plus newlines/tabs — the tokenizer's contract.
      int c = static_cast<int>(rng.Uniform(0, 97));
      body += c < 95 ? static_cast<char>(32 + c) : (c == 95 ? '\n' : '\t');
    }
    miner.ProcessDocument("fuzz", *core::AnalyzeDocument(body), &store);
  }
  SUCCEED();
}

TEST_F(RobustnessTest, AdHocMinerSurvivesPathologicalCapitalization) {
  core::AdHocSentimentMiner miner(&lexicon_, &patterns_);
  core::SentimentStore store;
  std::string all_caps;
  for (int i = 0; i < 200; ++i) all_caps += "AAA BBB CCC DDD ";
  miner.ProcessDocument("caps", *core::AnalyzeDocument(all_caps + "."), &store);
  std::string long_run;
  for (int i = 0; i < 500; ++i) long_run += "Word ";
  miner.ProcessDocument(
      "run", *core::AnalyzeDocument(long_run + "is excellent."), &store);
  SUCCEED();
}

TEST_F(RobustnessTest, VeryLongSentenceDoesNotBlowUp) {
  core::SentimentMiner miner(&lexicon_, &patterns_);
  miner.AddSubject({1, "battery", {}});
  core::SentimentStore store;
  std::string body = "The battery";
  for (int i = 0; i < 2000; ++i) body += " and the zoom";
  body += " is excellent.";
  miner.ProcessDocument("long", *core::AnalyzeDocument(body), &store);
  SUCCEED();
}

// --- Resource file failure modes ----------------------------------------------------

TEST_F(RobustnessTest, LexiconLoadFileMissing) {
  lexicon::SentimentLexicon lex;
  EXPECT_EQ(lex.LoadFile("/tmp/no_such_lexicon_file.txt").code(),
            common::StatusCode::kIOError);
}

TEST_F(RobustnessTest, PatternLoadReportsLineNumbers) {
  lexicon::PatternDatabase db;
  common::Status s = db.LoadText("be CP SP\nbroken line here now\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST_F(RobustnessTest, PartialPatternLoadLeavesValidPrefixOnly) {
  lexicon::PatternDatabase db;
  (void)db.LoadText("glorp + SP\nbad-line\n");
  // The first line was added before the failure; the database stays usable.
  EXPECT_NE(db.Lookup("glorp"), nullptr);
}

// --- Store / index corruption --------------------------------------------------------

TEST_F(RobustnessTest, IndexFreezeReopenRoundTrip) {
  // Segments are the index's one restore path: escaping, positions,
  // concept tokens and field values must all come back from them.
  const std::string dir = "/tmp/wf_index_freeze_reopen";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    platform::InvertedIndex index;
    ASSERT_TRUE(index.EnableSegments(dir, "idx").ok());
    platform::Entity a("doc a", "t");  // id with a space (escaping path)
    a.SetBody("the battery is excellent");
    a.SetField("date", "2004-05");
    a.AddConceptToken("sent/+/battery");
    index.IndexEntity(a);
    platform::Entity b("doc-b", "t");
    b.SetBody("picture quality wins");
    index.IndexEntity(b);
    ASSERT_TRUE(index.Freeze().ok());
  }

  platform::InvertedIndex restored;
  ASSERT_TRUE(restored.EnableSegments(dir, "idx").ok());
  EXPECT_EQ(restored.document_count(), 2u);
  EXPECT_EQ(restored.Term("battery"), (std::vector<std::string>{"doc a"}));
  EXPECT_EQ(restored.Phrase({"picture", "quality"}),
            (std::vector<std::string>{"doc-b"}));
  EXPECT_EQ(restored.Term("sent/+/battery"),
            (std::vector<std::string>{"doc a"}));
  EXPECT_EQ(restored.Range("date", 20040101, 20041231),
            (std::vector<std::string>{"doc a"}));
  std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, IndexLoadRejectsDanglingPosting) {
  // A checksummed segment whose one posting names doc 5 of a one-doc
  // table: opening it is Corruption, so no read ever meets an unknown doc.
  std::string block;
  store::PutVarint(1, &block);  // one posting
  store::PutVarint(5, &block);  // its doc ordinal
  store::PutVarint(0, &block);  // no positions
  const std::string payload = "wfpost 1 1 1 0\nd 1 a\nt word " +
                              std::to_string(block.size()) + "\n" + block +
                              "\n";
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      "wf_robustness_dangling_index";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "dangling.wfseg").string();
  ASSERT_TRUE(common::WriteSnapshotFile(path, common::kSnapKindIndexSegment,
                                        /*version=*/1, payload)
                  .ok());
  EXPECT_EQ(store::IndexSegmentReader::Open(path).status().code(),
            common::StatusCode::kCorruption);
  std::filesystem::remove_all(dir);
}

// --- Service failure ------------------------------------------------------------------

TEST_F(RobustnessTest, BusSurvivesServiceChurn) {
  platform::VinciBus bus;
  for (int round = 0; round < 20; ++round) {
    std::string name = "svc/" + std::to_string(round % 3);
    (void)bus.RegisterService(name, [](const std::string& r) { return r; });
    auto response = bus.Call(name, "ping");
    EXPECT_TRUE(response.ok());
    ASSERT_TRUE(bus.UnregisterService(name).ok());
    EXPECT_FALSE(bus.Call(name, "ping").ok());
  }
}

}  // namespace
}  // namespace wf
