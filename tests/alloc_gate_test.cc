// Allocation regression gates over the counting global allocator
// (bench/alloc_hook.h): how many heap allocations one analyzed document
// costs, with the per-document budget held under a recorded ceiling (the
// arena/interner refactor bought these numbers; this gate keeps them); and
// how much heap the index delta holds between checkpoints, and a
// checkpoint's index freeze and an index compaction take for a while, held
// to a multiple of the run they write; and how many
// allocations one store Upsert + Get of a mined page costs, and that a
// memtable lookup of a long key costs none.
//
// Not meaningful under sanitizers (interceptors replace operator new), so
// tests/CMakeLists.txt registers this binary only in plain builds.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "core/analysis.h"
#include "corpus/datasets.h"
#include "corpus/domain.h"
#include "corpus/web_gen.h"
#include "gtest/gtest.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "obs/metrics.h"
#include "platform/data_store.h"
#include "platform/entity.h"
#include "platform/indexer.h"
#include "platform/miner_framework.h"
#include "platform/sentiment_miner_plugin.h"
#include "store/lsm.h"

namespace wf {
namespace {

// Recorded ceilings, measured on this tree after the arena/interner
// refactor (117 analyze / 193 mining allocations per petroleum-corpus
// document). The pre-arena tree measured 84/doc on the same corpus —
// small-string optimization absorbed most per-token strings — so the
// gate's job is not to celebrate a drop but to keep the count *bounded*:
// any change that puts a non-SSO allocation in a token loop (long
// surface forms, lemma copies, join buffers) multiplies the count by
// tokens-per-document and trips the ceiling immediately, where SSO would
// have hidden it from a timing bench until the corpus changed.
constexpr uint64_t kAnalyzeAllocsPerDocCeiling = 160;
constexpr uint64_t kMineAllocsPerDocCeiling = 280;

uint64_t CountAllocs(const std::function<void()>& fn) {
  const uint64_t before = bench::Heap().allocations;
  fn();
  return bench::Heap().allocations - before;
}

// The whole front half of one document: the artifact with every sentence
// tagged and parsed.
void AnalyzeFully(const std::string& body) {
  std::unique_ptr<core::LinguisticAnalysis> analysis =
      core::AnalyzeDocument(body);
  ASSERT_FALSE(analysis->tokens.empty());
  for (size_t s = 0; s < analysis->sentences.size(); ++s) {
    ASSERT_FALSE(analysis->Clauses(s).empty());
  }
}

TEST(AllocGateTest, AnalysisFrontHalfStaysUnderBudget) {
  corpus::WebDataset petro = corpus::BuildPetroleumWebDataset(9001);
  ASSERT_FALSE(petro.docs.empty());
  // Warm up lazily-initialized embedded resources so they are not billed
  // to the first document.
  AnalyzeFully(petro.docs.front().body);
  const uint64_t total = CountAllocs([&petro] {
    for (const corpus::GeneratedDoc& d : petro.docs) AnalyzeFully(d.body);
  });
  const uint64_t per_doc = total / petro.docs.size();
  std::printf("analyze allocs/doc: %llu (ceiling %llu)\n",
              static_cast<unsigned long long>(per_doc),
              static_cast<unsigned long long>(kAnalyzeAllocsPerDocCeiling));
  EXPECT_LE(per_doc, kAnalyzeAllocsPerDocCeiling)
      << "per-document allocation budget regressed; if the growth is "
         "intentional, re-measure and update the recorded ceiling";
}

TEST(AllocGateTest, FullMiningSweepStaysUnderBudget) {
  corpus::WebDataset petro = corpus::BuildPetroleumWebDataset(9001);
  platform::DataStore store;
  for (const corpus::GeneratedDoc& d : petro.docs) {
    platform::Entity e(d.id, "crawl");
    e.SetBody(d.body);
    ASSERT_TRUE(store.Put(std::move(e)).ok());
  }
  static const lexicon::SentimentLexicon* const lexicon =
      new lexicon::SentimentLexicon(lexicon::SentimentLexicon::Embedded());
  static const lexicon::PatternDatabase* const patterns =
      new lexicon::PatternDatabase(lexicon::PatternDatabase::Embedded());
  platform::MinerPipeline pipeline;
  pipeline.AddMiner(std::make_unique<platform::SentenceBoundaryMiner>());
  pipeline.AddMiner(std::make_unique<platform::TokenStatsMiner>());
  pipeline.AddMiner(std::make_unique<platform::AdHocSentimentMinerPlugin>(
      lexicon, patterns));
  // As in the analysis case: the shared tagger's one-time lexicon build is
  // not the corpus's to pay, whether or not another test ran first.
  AnalyzeFully(petro.docs.front().body);
  const uint64_t total =
      CountAllocs([&pipeline, &store] { pipeline.ProcessStore(store); });
  const uint64_t per_doc = total / store.size();
  std::printf("mining allocs/doc: %llu (ceiling %llu)\n",
              static_cast<unsigned long long>(per_doc),
              static_cast<unsigned long long>(kMineAllocsPerDocCeiling));
  EXPECT_LE(per_doc, kMineAllocsPerDocCeiling)
      << "per-document mining allocation budget regressed; if the growth "
         "is intentional, re-measure and update the recorded ceiling";
}

// --- Checkpoint memory --------------------------------------------------------
//
// A freeze writes the delta tier and a compaction merges its inputs term by
// term through one streaming run writer, so either holds about one run's
// encoded bytes at a time, never the run's postings as vectors. The gate
// holds the heap a call adds at its peak to this multiple of the run it
// writes.
constexpr double kRunBytesMultiple = 3.0;

// Heap bytes `fn` adds at its peak over what was live when it started.
uint64_t PeakGrowth(const std::function<void()>& fn) {
  const uint64_t before = bench::Heap().live_bytes;
  bench::ResetHeapPeak();
  fn();
  return bench::Heap().peak_bytes - before;
}

// The first `n` web pages of one seeded crawl, mined as IndexWorkTest mines
// them: body, sentiment concept tokens and token-stat fields.
std::vector<platform::Entity> MinedWebPages(size_t n) {
  const auto lexicon = lexicon::SentimentLexicon::Embedded();
  const auto patterns = lexicon::PatternDatabase::Embedded();
  platform::AdHocSentimentMinerPlugin sentiment(&lexicon, &patterns);
  platform::TokenStatsMiner token_stats;
  std::vector<platform::Entity> mined;
  for (const corpus::GeneratedDoc& d : corpus::GenerateWebDocs(
           corpus::PetroleumDomain(), n, 77, corpus::WebGenOptions{})) {
    platform::Entity e(d.id, "crawl");
    e.SetBody(d.body);
    std::unique_ptr<core::LinguisticAnalysis> analysis =
        core::AnalyzeDocument(d.body);
    EXPECT_TRUE(sentiment.Process(e, {*analysis}).ok());
    EXPECT_TRUE(token_stats.Process(e, {*analysis}).ok());
    mined.push_back(std::move(e));
  }
  return mined;
}

// A fresh directory for index runs, removed when the scope ends.
class RunDir {
 public:
  explicit RunDir(const std::string& name)
      : path_(::testing::TempDir() + "wf_alloc_gate_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~RunDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// File bytes of the runs in `dir`.
uint64_t RunBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wfseg") bytes += entry.file_size();
  }
  return bytes;
}

TEST(AllocGateTest, IndexFreezePeakStaysWithinThreeRunBytes) {
  const std::vector<platform::Entity> mined = MinedWebPages(8000);
  for (size_t n : {1000, 8000}) {
    RunDir dir("freeze");
    platform::InvertedIndex index;
    ASSERT_TRUE(index.EnableSegments(dir.path(), "idx").ok());
    for (size_t i = 0; i < n; ++i) index.IndexEntity(mined[i]);
    const uint64_t growth =
        PeakGrowth([&index] { ASSERT_TRUE(index.Freeze().ok()); });
    const uint64_t run_bytes = RunBytes(dir.path());
    ASSERT_EQ(index.frozen_segment_count(), 1u);
    ASSERT_GT(run_bytes, 0u);
    std::printf("freeze of %zu pages: peak heap +%llu bytes for a %llu-byte "
                "run (%.2fx, bound %.1fx)\n",
                n, static_cast<unsigned long long>(growth),
                static_cast<unsigned long long>(run_bytes),
                static_cast<double>(growth) / static_cast<double>(run_bytes),
                kRunBytesMultiple);
    EXPECT_LE(static_cast<double>(growth),
              kRunBytesMultiple * static_cast<double>(run_bytes))
        << n << " pages";
  }
}

// Between checkpoints the delta tier holds what the next run will hold, so
// its heap is held to the same multiple of that run. Re-indexing the same
// pages twice more before the freeze retires two versions of each; the
// delta then holds its live entries plus at most as many retired ones, so
// three passes stay under 2.5x the heap of one.
constexpr double kReindexedDeltaMultiple = 2.5;

TEST(AllocGateTest, IndexDeltaStaysWithinThreeRunBytes) {
  const std::vector<platform::Entity> mined = MinedWebPages(8000);
  for (size_t n : {1000, 8000}) {
    RunDir dir("delta");
    platform::InvertedIndex index;
    ASSERT_TRUE(index.EnableSegments(dir.path(), "idx").ok());
    const uint64_t before = bench::Heap().live_bytes;
    for (size_t i = 0; i < n; ++i) index.IndexEntity(mined[i]);
    const uint64_t one_pass = bench::Heap().live_bytes - before;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < n; ++i) index.IndexEntity(mined[i]);
    }
    const uint64_t three_passes = bench::Heap().live_bytes - before;
    ASSERT_TRUE(index.Freeze().ok());
    const uint64_t run_bytes = RunBytes(dir.path());
    ASSERT_EQ(index.frozen_segment_count(), 1u);
    ASSERT_GT(run_bytes, 0u);
    std::printf("delta of %zu pages: heap %llu bytes for a %llu-byte run "
                "(%.2fx, bound %.1fx); after three passes %.2fx one pass "
                "(bound %.1fx)\n",
                n, static_cast<unsigned long long>(one_pass),
                static_cast<unsigned long long>(run_bytes),
                static_cast<double>(one_pass) / static_cast<double>(run_bytes),
                kRunBytesMultiple,
                static_cast<double>(three_passes) /
                    static_cast<double>(one_pass),
                kReindexedDeltaMultiple);
    EXPECT_LE(static_cast<double>(one_pass),
              kRunBytesMultiple * static_cast<double>(run_bytes))
        << n << " pages";
    EXPECT_LE(static_cast<double>(three_passes),
              kReindexedDeltaMultiple * static_cast<double>(one_pass))
        << n << " pages";
  }
}

TEST(AllocGateTest, IndexCompactionPeakStaysWithinThreeRunBytes) {
  const std::vector<platform::Entity> mined = MinedWebPages(7400);
  RunDir dir("compaction");
  {
    // Four runs of 2,000 pages, each re-indexing the previous run's last
    // 200, frozen with compaction off: one size tier, ready to merge.
    platform::InvertedIndex index;
    ASSERT_TRUE(index
                    .EnableSegments(dir.path(), "idx", nullptr,
                                    /*compaction_fanout=*/0)
                    .ok());
    for (size_t run = 0; run < 4; ++run) {
      for (size_t i = run * 1800; i < run * 1800 + 2000; ++i) {
        index.IndexEntity(mined[i]);
      }
      ASSERT_TRUE(index.Freeze().ok());
    }
    ASSERT_EQ(index.frozen_segment_count(), 4u);
  }
  obs::MetricsRegistry metrics;
  platform::InvertedIndex index;
  index.AttachMetrics(&metrics);
  ASSERT_TRUE(index
                  .EnableSegments(dir.path(), "idx", nullptr,
                                  /*compaction_fanout=*/4)
                  .ok());
  // An empty delta: the call only compacts.
  const uint64_t growth =
      PeakGrowth([&index] { ASSERT_TRUE(index.Freeze().ok()); });
  const uint64_t run_bytes = RunBytes(dir.path());
  ASSERT_EQ(index.frozen_segment_count(), 1u);
  ASSERT_EQ(metrics.Snapshot().CounterValue("index/compactions_total"), 1u);
  ASSERT_EQ(index.document_count(), 7400u);
  std::printf("compaction of 4 runs: peak heap +%llu bytes for a %llu-byte "
              "run (%.2fx, bound %.1fx)\n",
              static_cast<unsigned long long>(growth),
              static_cast<unsigned long long>(run_bytes),
              static_cast<double>(growth) / static_cast<double>(run_bytes),
              kRunBytesMultiple);
  EXPECT_LE(static_cast<double>(growth),
            kRunBytesMultiple * static_cast<double>(run_bytes));
}

// --- Store codec ------------------------------------------------------------------
//
// One Upsert and one Get of a mined web page: the commit thread's encode
// and a reader's decode of the binary record, with the memtable entry and
// the copy Get hands out. The escaped text record took 63 allocations
// here, the binary record takes 19; the ceiling sits between the two.
constexpr uint64_t kUpsertGetAllocsCeiling = 40;

TEST(AllocGateTest, StoreUpsertAndGetOfAMinedPageStayUnderBudget) {
  const std::vector<platform::Entity> mined = MinedWebPages(20);
  const platform::Entity* page = nullptr;
  for (const platform::Entity& e : mined) {
    if (e.GetAnnotations("sentiment") != nullptr) {
      page = &e;
      break;
    }
  }
  ASSERT_NE(page, nullptr);
  platform::DataStore store;
  const uint64_t allocs = CountAllocs([&store, page] {
    ASSERT_TRUE(store.Upsert(*page).ok());
    ASSERT_TRUE(store.Get(page->id()).ok());
  });
  std::printf("store upsert + get allocs: %llu (ceiling %llu)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(kUpsertGetAllocsCeiling));
  EXPECT_LE(allocs, kUpsertGetAllocsCeiling);
}

// A point read or an overwrite of a key the memtable holds looks the key
// up as the view it is given, so it allocates nothing for a key longer
// than the small-string buffer, and nothing for a short value.
TEST(AllocGateTest, MemtableLookupsOfALongKeyDoNotAllocate) {
  const std::string key = "petroleum-web-1234";  // 18 bytes
  store::LsmTree tree;
  ASSERT_TRUE(tree.Put(key, "short").ok());
  const uint64_t contains = CountAllocs([&tree, &key] {
    ASSERT_TRUE(tree.Contains(key));
  });
  const uint64_t get = CountAllocs([&tree, &key] {
    ASSERT_EQ(tree.Get(key).value(), "short");
  });
  const uint64_t put = CountAllocs([&tree, &key] {
    ASSERT_TRUE(tree.Put(key, "other").ok());
  });
  std::printf("memtable allocs: contains %llu, get %llu, put %llu "
              "(ceiling 0)\n",
              static_cast<unsigned long long>(contains),
              static_cast<unsigned long long>(get),
              static_cast<unsigned long long>(put));
  EXPECT_EQ(contains, 0u);
  EXPECT_EQ(get, 0u);
  EXPECT_EQ(put, 0u);
}

}  // namespace
}  // namespace wf
