// Parallel shard mining: the MineExecutor pool and the determinism
// contract — a parallel ProcessStore/MineAndIndex sweep must be
// byte-identical to the sequential one at every thread count, including
// under injected miner faults and after a crash/Recover() cycle.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/string_util.h"
#include "corpus/domain.h"
#include "corpus/web_gen.h"
#include "gtest/gtest.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "platform/data_store.h"
#include "platform/entity.h"
#include "platform/mine_executor.h"
#include "platform/miner_framework.h"
#include "platform/sentiment_miner_plugin.h"

namespace wf {
namespace {

using ::wf::common::Status;
using ::wf::platform::AdHocSentimentMinerPlugin;
using ::wf::platform::Cluster;
using ::wf::platform::DataStore;
using ::wf::platform::Entity;
using ::wf::platform::EntityMiner;
using ::wf::platform::MineContext;
using ::wf::platform::MineExecutor;
using ::wf::platform::MineExecutorOptions;
using ::wf::platform::MinerPipeline;
using ::wf::platform::SentenceBoundaryMiner;
using ::wf::platform::TokenStatsMiner;

// A fresh directory under /tmp, removed on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_("/tmp/wf_parallel_mining_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  auto content = common::ReadFileToString(path);
  EXPECT_TRUE(content.ok()) << path;
  return content.ok() ? content.value() : std::string();
}

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

// Sentiment-rich bodies so the ad-hoc miner produces annotations and
// conceptual tokens whose ordering the byte-comparisons would catch.
Entity MakeEntity(size_t i) {
  static const char* const kBodies[] = {
      "The ThinkPad battery is excellent. The keyboard feels great, but the "
      "screen is disappointing in Paris.",
      "I hate the noisy fan. The camera takes beautiful pictures and the "
      "battery life is amazing.",
      "Service in London was terrible. However, the support team is "
      "wonderful and the price is fair.",
      "The new phone is not bad at all. Its display is stunning and the "
      "speaker sounds awful.",
  };
  Entity e(common::StrFormat("doc-%03zu", i), "review");
  e.SetBody(common::StrFormat("Review %zu. %s", i,
                              kBodies[i % (sizeof(kBodies) / sizeof(kBodies[0]))]));
  e.SetField("date", common::StrFormat("2004-%02zu-10", 1 + i % 12));
  return e;
}

void FillStore(DataStore* store, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(store->Put(MakeEntity(i)).ok());
  }
}

// Fails deterministically for ~20% of entities, keyed on the entity id so
// the failure set is independent of processing order and thread count.
class FlakyMiner : public EntityMiner {
 public:
  std::string name() const override { return "flaky"; }
  common::Status Process(Entity& entity, const MineContext&) override {
    if (common::Fnv1a64(entity.id()) % 5 == 0) {
      return Status::Internal("injected mining fault: " + entity.id());
    }
    entity.SetField("flaky_ok", "1");
    return Status::Ok();
  }
};

// Cross-document state: must force the pipeline's sequential fallback.
class OrderDependentMiner : public EntityMiner {
 public:
  std::string name() const override { return "order_dependent"; }
  bool parallel_safe() const override { return false; }
  common::Status Process(Entity& entity, const MineContext&) override {
    // Unsynchronized on purpose: a racy parallel sweep would corrupt the
    // count (and trip TSan); the sequential fallback keeps it exact.
    ++seen_;
    entity.SetField("seq", common::StrFormat("%zu", seen_));
    return Status::Ok();
  }
  size_t seen() const { return seen_; }

 private:
  size_t seen_ = 0;
};

// --- MineExecutor -----------------------------------------------------------

TEST(MineExecutorTest, RunsEveryIndexExactlyOnce) {
  MineExecutor pool(MineExecutorOptions{.threads = 4});
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> runs(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(MineExecutorTest, ZeroCountReturnsImmediately) {
  MineExecutor pool(MineExecutorOptions{.threads = 2});
  pool.ParallelFor(0, [](size_t) { FAIL() << "task ran for empty batch"; });
}

TEST(MineExecutorTest, NestedParallelForDoesNotDeadlock) {
  // A task that scatters again must drain its own nested batch even when
  // every pool worker is already busy with the outer batch.
  MineExecutor pool(MineExecutorOptions{.threads = 2});
  std::atomic<size_t> inner_runs{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(32, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 8u * 32u);
}

TEST(MineExecutorTest, SubmittedTasksRunOnWorkersAndMayNestParallelFor) {
  // A submitted task never runs on the submitting thread, and one that
  // scatters again on the same pool drains its own nested batch: with a
  // single worker, every task's inner runs still finish.
  std::mutex mu;
  std::condition_variable done_cv;
  size_t inner_runs = 0;  // guarded by mu
  std::atomic<int> on_submitter{0};
  const std::thread::id submitter = std::this_thread::get_id();
  // Declared last, so it is joined before the state its tasks touch goes.
  MineExecutor pool(MineExecutorOptions{.threads = 1});
  for (int task = 0; task < 4; ++task) {
    pool.Submit([&] {
      if (std::this_thread::get_id() == submitter) on_submitter.fetch_add(1);
      pool.ParallelFor(8, [&](size_t) {
        std::lock_guard<std::mutex> lock(mu);
        if (++inner_runs == 32) done_cv.notify_all();
      });
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(30),
                               [&] { return inner_runs == 32; }));
  EXPECT_EQ(on_submitter.load(), 0);
}

TEST(MineExecutorTest, ResolveThreadsClampsToSupportedRange) {
  EXPECT_GE(MineExecutor::ResolveThreads(0), 1u);   // hardware, at least 1
  EXPECT_LE(MineExecutor::ResolveThreads(0), 16u);
  EXPECT_EQ(MineExecutor::ResolveThreads(5), 5u);
  EXPECT_EQ(MineExecutor::ResolveThreads(100), 16u);
}

TEST(MineExecutorTest, PoolMetricsSettleWhenQuiescent) {
  obs::MetricsRegistry metrics;
  MineExecutor pool(MineExecutorOptions{.threads = 3});
  pool.AttachMetrics(&metrics);
  pool.ParallelFor(64, [](size_t) {});
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.GaugeValue("mine_executor/pool_threads"), 3);
  EXPECT_EQ(snap.GaugeValue("mine_executor/busy_workers"), 0);
  const obs::HistogramSnapshot* latency =
      snap.FindHistogram("mine_executor/batch_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count, 0u);
}

// --- Deterministic parallel ProcessStore ------------------------------------

struct SweepResult {
  std::string store_bytes;
  std::string metrics_text;  // deterministic export (timings excluded)
  std::vector<MinerPipeline::MinerStats> stats;
};

// Builds a store + pipeline (optionally with the flaky miner), sweeps it
// with `threads` workers (0 = sequential path, no executor), and returns
// everything the determinism contract promises is thread-count independent.
SweepResult SweepOnce(size_t count, size_t threads, bool with_flaky,
                      const std::string& tag) {
  ScopedTempDir dir("sweep_" + tag);
  DataStore store;
  FillStore(&store, count);

  obs::MetricsRegistry metrics;
  MinerPipeline pipeline;
  pipeline.AttachMetrics(&metrics);
  pipeline.AddMiner(std::make_unique<SentenceBoundaryMiner>());
  pipeline.AddMiner(std::make_unique<TokenStatsMiner>());
  if (with_flaky) pipeline.AddMiner(std::make_unique<FlakyMiner>());
  pipeline.AddMiner(
      std::make_unique<AdHocSentimentMinerPlugin>(&Lexicon(), &Patterns()));

  if (threads == 0) {
    pipeline.ProcessStore(store);
  } else {
    MineExecutor pool(MineExecutorOptions{.threads = threads});
    pipeline.ProcessStore(store, &pool);
  }

  SweepResult result;
  EXPECT_TRUE(store.Save(dir.File("store.snap")).ok());
  result.store_bytes = ReadAll(dir.File("store.snap"));
  result.metrics_text =
      metrics.Snapshot().ExportText({.include_timings = false});
  result.stats = pipeline.Stats();
  return result;
}

void ExpectSameSweep(const SweepResult& base, const SweepResult& other,
                     const std::string& label) {
  EXPECT_EQ(base.store_bytes, other.store_bytes) << label;
  EXPECT_EQ(base.metrics_text, other.metrics_text) << label;
  ASSERT_EQ(base.stats.size(), other.stats.size()) << label;
  for (size_t i = 0; i < base.stats.size(); ++i) {
    EXPECT_EQ(base.stats[i].entities, other.stats[i].entities) << label;
    EXPECT_EQ(base.stats[i].failures, other.stats[i].failures) << label;
    EXPECT_EQ(base.stats[i].consecutive_failures,
              other.stats[i].consecutive_failures)
        << label;
    EXPECT_EQ(base.stats[i].quarantined, other.stats[i].quarantined) << label;
  }
}

TEST(ParallelSweepDeterminismTest, OutputIsByteIdenticalAtEveryThreadCount) {
  const SweepResult sequential = SweepOnce(40, 0, /*with_flaky=*/false, "seq");
  EXPECT_FALSE(sequential.store_bytes.empty());
  for (size_t threads : {1, 2, 4, 8}) {
    ExpectSameSweep(sequential,
                    SweepOnce(40, threads, /*with_flaky=*/false,
                              common::StrFormat("t%zu", threads)),
                    common::StrFormat("threads=%zu", threads));
  }
}

TEST(ParallelSweepDeterminismTest, HoldsUnderTwentyPercentMinerFaults) {
  const SweepResult sequential =
      SweepOnce(40, 0, /*with_flaky=*/true, "flaky_seq");
  // The fault injection actually fired (~20% of 40 ids).
  bool saw_failures = false;
  for (const auto& s : sequential.stats) {
    if (s.name == "flaky" && s.failures > 0) saw_failures = true;
  }
  EXPECT_TRUE(saw_failures);
  for (size_t threads : {1, 2, 4, 8}) {
    ExpectSameSweep(sequential,
                    SweepOnce(40, threads, /*with_flaky=*/true,
                              common::StrFormat("flaky_t%zu", threads)),
                    common::StrFormat("flaky threads=%zu", threads));
  }
}

TEST(ParallelSweepDeterminismTest,
     NonParallelSafeMinerForcesSequentialFallback) {
  DataStore store;
  FillStore(&store, 24);
  MinerPipeline pipeline;
  auto order_miner = std::make_unique<OrderDependentMiner>();
  const OrderDependentMiner* raw = order_miner.get();
  pipeline.AddMiner(std::move(order_miner));
  MineExecutor pool(MineExecutorOptions{.threads = 8});
  pipeline.ProcessStore(store, &pool);
  // Unsynchronized counter is exact: the sweep really was sequential.
  EXPECT_EQ(raw->seen(), 24u);
  // And sequential means sorted-id order: doc-000 was first.
  auto first = store.Get("doc-000");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->GetField("seq"), "1");
}

TEST(ParallelSweepDeterminismTest, QuarantineTripsIdenticallyWhenParallel) {
  // An always-failing miner must cross the quarantine threshold during the
  // parallel sweep exactly as it does sequentially (replayed in canonical
  // order), and be skipped by the next sweep.
  class AlwaysFailMiner : public EntityMiner {
   public:
    std::string name() const override { return "always_fail"; }
    common::Status Process(Entity&, const MineContext&) override {
      return Status::Internal("broken plugin");
    }
  };
  auto run = [](MineExecutor* pool) {
    DataStore store;
    FillStore(&store, 20);
    MinerPipeline pipeline;
    pipeline.SetQuarantineThreshold(4);
    pipeline.AddMiner(std::make_unique<AlwaysFailMiner>());
    pipeline.AddMiner(std::make_unique<TokenStatsMiner>());
    pipeline.ProcessStore(store, pool);
    return pipeline.Stats();
  };
  MineExecutor pool(MineExecutorOptions{.threads = 8});
  std::vector<MinerPipeline::MinerStats> sequential = run(nullptr);
  std::vector<MinerPipeline::MinerStats> parallel = run(&pool);
  ASSERT_EQ(sequential.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  EXPECT_TRUE(sequential[0].quarantined);
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].entities, parallel[i].entities);
    EXPECT_EQ(sequential[i].failures, parallel[i].failures);
    EXPECT_EQ(sequential[i].quarantined, parallel[i].quarantined);
  }
}

// --- Cluster-level determinism ----------------------------------------------

void DeploySentimentMiner(Cluster* cluster) {
  cluster->DeployMiner([] {
    return std::make_unique<AdHocSentimentMinerPlugin>(&Lexicon(),
                                                       &Patterns());
  });
}

// Saves every node's store and index snapshots and concatenates the bytes:
// one string that any scheduling difference anywhere in the cluster's
// mining or indexing would perturb.
std::string ClusterFingerprint(Cluster* cluster, const ScopedTempDir& dir,
                               const std::string& tag) {
  std::string bytes;
  for (size_t i = 0; i < cluster->node_count(); ++i) {
    const std::string store_path =
        dir.File(common::StrFormat("%s-n%zu.store", tag.c_str(), i));
    const std::string index_path =
        dir.File(common::StrFormat("%s-n%zu.idx", tag.c_str(), i));
    EXPECT_TRUE(cluster->node(i).store().Save(store_path).ok());
    EXPECT_TRUE(cluster->node(i).index().Save(index_path).ok());
    bytes += ReadAll(store_path);
    bytes += ReadAll(index_path);
  }
  return bytes;
}

// FNV-1a of ClusterFingerprint for the 3-node, 24-entity cluster below,
// captured while the index still read its tokens from the node's cached
// analysis artifacts. The index now tokenizes each body itself, so this
// value pins the two token sources to identical postings.
constexpr uint64_t kClusterGolden = 0xafc40e31eca7c7e8ULL;

TEST(ClusterParallelMiningTest, MineAndIndexAllIsThreadCountIndependent) {
  ScopedTempDir dir("cluster_det");
  auto fingerprint = [&dir](size_t threads) {
    Cluster cluster(3);
    DeploySentimentMiner(&cluster);
    cluster.ConfigureMining(MineExecutorOptions{.threads = threads});
    for (size_t i = 0; i < 24; ++i) {
      EXPECT_TRUE(cluster.Ingest(MakeEntity(i)).ok()) << i;
    }
    cluster.MineAndIndexAll();
    return ClusterFingerprint(&cluster, dir,
                              common::StrFormat("t%zu", threads));
  };
  for (size_t threads : {1, 2, 4, 8}) {
    EXPECT_EQ(common::Fnv1a64(fingerprint(threads)), kClusterGolden)
        << "threads=" << threads;
  }
}

// 1,200 seeded petroleum + pharma web pages: enough that each shard of a
// 2-node cluster spans several sweep windows.
void IngestWebCorpus(Cluster* cluster) {
  for (const corpus::DomainVocab* domain :
       {&corpus::PetroleumDomain(), &corpus::PharmaDomain()}) {
    for (const corpus::GeneratedDoc& d : corpus::GenerateWebDocs(
             *domain, 600, 4242, corpus::WebGenOptions{})) {
      Entity e(d.id, "crawl");
      e.SetBody(d.body);
      EXPECT_TRUE(cluster->Ingest(std::move(e)).ok()) << d.id;
    }
  }
}

// FNV-1a of ClusterFingerprint for the 2-node web-corpus cluster below,
// captured while mining snapshotted the whole shard and indexing re-read
// it in a second pass.
constexpr uint64_t kMultiWindowGolden = 0x9f097a2c52864899ULL;

TEST(ClusterParallelMiningTest,
     MultiWindowShardsMatchGoldenAtEveryThreadCount) {
  ScopedTempDir dir("multi_window");
  for (size_t threads : {1, 2, 4, 8}) {
    Cluster cluster(2);
    DeploySentimentMiner(&cluster);
    cluster.ConfigureMining(MineExecutorOptions{.threads = threads});
    IngestWebCorpus(&cluster);
    for (size_t i = 0; i < cluster.node_count(); ++i) {
      // The premise: every shard spans at least three sweep windows.
      ASSERT_GT(cluster.node(i).store().size(),
                2 * MinerPipeline::kSweepWindow)
          << "node " << i;
    }
    cluster.MineAndIndexAll();
    EXPECT_EQ(common::Fnv1a64(ClusterFingerprint(
                  &cluster, dir, common::StrFormat("t%zu", threads))),
              kMultiWindowGolden)
        << "threads=" << threads;
  }
}

TEST(ClusterParallelMiningTest, SecondSweepLeavesIndexBytesUnchanged) {
  // Re-indexing every document over its own delta postings (no checkpoint
  // between the sweeps) must reproduce the index exactly.
  ScopedTempDir dir("reindex");
  Cluster cluster(2);
  DeploySentimentMiner(&cluster);
  IngestWebCorpus(&cluster);
  auto index_bytes = [&](const std::string& tag) {
    std::vector<std::string> out;
    for (size_t i = 0; i < cluster.node_count(); ++i) {
      const std::string path =
          dir.File(common::StrFormat("%s-n%zu.idx", tag.c_str(), i));
      EXPECT_TRUE(cluster.node(i).index().Save(path).ok());
      out.push_back(ReadAll(path));
    }
    return out;
  };
  cluster.MineAndIndexAll();
  const std::vector<std::string> first = index_bytes("first");
  cluster.MineAndIndexAll();
  const std::vector<std::string> second = index_bytes("second");
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_FALSE(first[i].empty()) << "node " << i;
    EXPECT_EQ(first[i], second[i]) << "node " << i;
  }
}

TEST(ClusterParallelMiningTest, SentimentSearchAgreesAcrossThreadCounts) {
  auto docs_for = [](size_t threads, const std::string& term) {
    Cluster cluster(2);
    DeploySentimentMiner(&cluster);
    cluster.ConfigureMining(MineExecutorOptions{.threads = threads});
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_TRUE(cluster.Ingest(MakeEntity(i)).ok());
    }
    cluster.MineAndIndexAll();
    return cluster.Search(term).docs;
  };
  for (const char* term : {"sent/+/battery", "battery", "excellent"}) {
    std::vector<std::string> sequential = docs_for(1, term);
    EXPECT_EQ(sequential, docs_for(8, term)) << term;
  }
}

TEST(ClusterParallelMiningTest, CrashRecoveryReminesToIdenticalBytes) {
  ScopedTempDir snapshots("crash_snapshots");

  // Both clusters run two full mining sweeps over the same ingests; the
  // parallel one additionally loses node state to a crash and rebuilds it
  // from checkpoint + WAL between the sweeps. Same bytes expected anyway.
  auto run = [&](const std::string& tag, size_t threads, bool crash) {
    ScopedTempDir wal_dir("crash_" + tag);
    Cluster cluster(2);
    DeploySentimentMiner(&cluster);
    cluster.ConfigureMining(MineExecutorOptions{.threads = threads});
    EXPECT_TRUE(
        cluster.EnableDurability({.dir = wal_dir.path()}, nullptr).ok());
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_TRUE(cluster.Ingest(MakeEntity(i)).ok());
    }
    cluster.MineAndIndexAll();
    EXPECT_TRUE(cluster.CheckpointAll().ok());
    if (crash) {
      EXPECT_TRUE(cluster.CrashNode(0).ok());
      EXPECT_TRUE(cluster.RestartNode(0).ok());
    }
    cluster.MineAndIndexAll();
    return ClusterFingerprint(&cluster, snapshots, tag);
  };

  const std::string reference = run("ref", 1, /*crash=*/false);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(reference, run("crashed", 8, /*crash=*/true));
}

}  // namespace
}  // namespace wf
