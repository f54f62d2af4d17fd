// Deterministic chaos suite for the fault-injection harness and the
// resilient RPC layer (DESIGN.md "Fault model & resilience").
//
// Everything here replays exactly: fault verdicts are a pure function of
// (seed, service, per-service call sequence), the circuit breaker counts
// calls rather than wall time, and the acceptance scenario checks that a
// degraded cluster answers every query with honest coverage — then returns
// to baseline-identical answers once the faults clear and the breakers
// close.

#include <filesystem>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/logging.h"
#include "gtest/gtest.h"
#include "lexicon/pattern_db.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/cluster.h"
#include "platform/data_store.h"
#include "platform/fault.h"
#include "platform/ingest.h"
#include "platform/miner_framework.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"
#include "platform/vinci.h"

namespace wf::platform {
namespace {

using ::wf::common::Status;
using ::wf::common::StatusCode;

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjectorTest, SameSeedReplaysIdenticalVerdicts) {
  FaultPolicy policy;
  policy.fail_probability = 0.3;
  policy.corrupt_probability = 0.2;
  policy.latency_jitter_us = 50;

  FaultInjector a(42), b(42), c(43);
  a.SetPolicy("node/", policy);
  b.SetPolicy("node/", policy);
  c.SetPolicy("node/", policy);

  bool any_difference_from_c = false;
  for (int i = 0; i < 200; ++i) {
    FaultInjector::Decision da = a.Decide("node/0/search");
    FaultInjector::Decision db = b.Decide("node/0/search");
    FaultInjector::Decision dc = c.Decide("node/0/search");
    EXPECT_EQ(da.action, db.action);
    EXPECT_EQ(da.extra_latency_us, db.extra_latency_us);
    if (da.action != dc.action ||
        da.extra_latency_us != dc.extra_latency_us) {
      any_difference_from_c = true;
    }
  }
  EXPECT_TRUE(any_difference_from_c);  // a different seed is a different run
}

TEST(FaultInjectorTest, VerdictsDependOnServiceNotCallOrder) {
  // Interleaving calls to other services must not perturb a service's
  // verdict stream — that is what makes concurrent scatters reproducible.
  FaultPolicy policy;
  policy.fail_probability = 0.5;
  FaultInjector a(7), b(7);
  a.SetPolicy("node/", policy);
  b.SetPolicy("node/", policy);

  std::vector<FaultInjector::Decision::Action> stream_a, stream_b;
  for (int i = 0; i < 50; ++i) {
    stream_a.push_back(a.Decide("node/0/search").action);
  }
  for (int i = 0; i < 50; ++i) {
    (void)b.Decide("node/1/search");  // noise on another service
    stream_b.push_back(b.Decide("node/0/search").action);
  }
  EXPECT_EQ(stream_a, stream_b);
}

TEST(FaultInjectorTest, LongestMatchingPrefixWins) {
  FaultPolicy fleet;  // benign
  FaultPolicy sick;
  sick.fail_probability = 1.0;
  FaultInjector injector(1);
  injector.SetPolicy("node/", fleet);
  injector.SetPolicy("node/1/", sick);

  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(injector.Decide("node/0/search").action,
              FaultInjector::Decision::Action::kDeliver);
    EXPECT_EQ(injector.Decide("node/1/search").action,
              FaultInjector::Decision::Action::kUnavailable);
  }
  injector.ClearPolicy("node/1/");
  EXPECT_EQ(injector.Decide("node/1/search").action,
            FaultInjector::Decision::Action::kDeliver);
}

TEST(FaultInjectorTest, PartitionBeatsPoliciesUntilHealed) {
  FaultInjector injector(9);
  injector.Partition("node/2/");
  EXPECT_TRUE(injector.IsPartitioned("node/2/fetch"));
  EXPECT_FALSE(injector.IsPartitioned("node/0/fetch"));
  EXPECT_EQ(injector.Decide("node/2/search").action,
            FaultInjector::Decision::Action::kUnavailable);
  injector.Heal("node/2/");
  EXPECT_EQ(injector.Decide("node/2/search").action,
            FaultInjector::Decision::Action::kDeliver);
  EXPECT_EQ(injector.counters().partitioned, 1u);
  EXPECT_EQ(injector.counters().delivered, 1u);
}

// --- Resilient Call: retries, deadlines, breaker ---------------------------

class FaultyBusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(bus_
                    .RegisterService("node/0/echo",
                                     [](const std::string& request) {
                                       return "echo:" + request;
                                     })
                    .ok());
    bus_.AttachFaultInjector(&injector_);
  }

  VinciBus bus_;
  FaultInjector injector_{2026};
};

TEST_F(FaultyBusTest, RetriesSpendExactlyTheConfiguredAttempts) {
  FaultPolicy dead;
  dead.fail_probability = 1.0;
  injector_.SetPolicy("node/0/", dead);

  CallOptions options;
  options.max_retries = 3;
  options.initial_backoff_us = 1;
  options.max_backoff_us = 4;
  auto result = bus_.Call("node/0/echo", "x", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(bus_.CallCount("node/0/echo"), 4u);  // 1 try + 3 retries

  injector_.ClearAllPolicies();
  auto healed = bus_.Call("node/0/echo", "x", options);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, "echo:x");
}

TEST_F(FaultyBusTest, CorruptionIsDetectedAndRetryable) {
  FaultPolicy garbled;
  garbled.corrupt_probability = 1.0;
  injector_.SetPolicy("node/0/", garbled);

  // Plain call: the mangled response surfaces as a checksum error, never as
  // silently wrong bytes.
  auto plain = bus_.Call("node/0/echo", "x");
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kCorruption);

  // Resilient call: corruption is retryable, so attempts are spent on it.
  CallOptions options;
  options.max_retries = 2;
  options.initial_backoff_us = 1;
  auto retried = bus_.Call("node/0/echo", "x", options);
  ASSERT_FALSE(retried.ok());
  EXPECT_EQ(retried.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(bus_.CallCount("node/0/echo"), 4u);
  EXPECT_GE(injector_.counters().corrupted, 4u);
}

TEST_F(FaultyBusTest, DeadlineCutsOffSlowAndRetryingCalls) {
  FaultPolicy slow;
  slow.added_latency_us = 20000;  // 20 ms per call
  injector_.SetPolicy("node/0/", slow);

  CallOptions options;
  options.deadline_us = 2000;  // 2 ms budget
  auto late = bus_.Call("node/0/echo", "x", options);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  // A dead service under a deadline gives up via the deadline, not after
  // burning every retry's backoff.
  injector_.ClearAllPolicies();
  FaultPolicy dead;
  dead.fail_probability = 1.0;
  injector_.SetPolicy("node/0/", dead);
  options.max_retries = 1000;
  options.initial_backoff_us = 500;
  options.max_backoff_us = 500;
  auto cut = bus_.Call("node/0/echo", "x", options);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultyBusTest, NotFoundIsNeitherRetriedNorBreakerCounted) {
  CallOptions options;
  options.max_retries = 5;
  auto missing = bus_.Call("node/9/echo", "x", options);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // A registry miss is not a health signal: no breaker state accrues.
  EXPECT_EQ(bus_.breaker_state("node/9/echo"), BreakerState::kClosed);
}

TEST_F(FaultyBusTest, BreakerOpensProbesAndCloses) {
  bus_.SetBreakerConfig({/*failure_threshold=*/3, /*open_rejections=*/2});
  FaultPolicy dead;
  dead.fail_probability = 1.0;
  injector_.SetPolicy("node/0/", dead);

  // Three real failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bus_.Call("node/0/echo", "x").status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(bus_.breaker_state("node/0/echo"), BreakerState::kOpen);
  size_t dispatched = bus_.CallCount("node/0/echo");

  // The next two calls are shed without reaching the service.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(bus_.Call("node/0/echo", "x").status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(bus_.CallCount("node/0/echo"), dispatched);
  EXPECT_EQ(bus_.breaker_state("node/0/echo"), BreakerState::kHalfOpen);

  // Half-open probe against a still-dead service re-opens the circuit.
  EXPECT_EQ(bus_.Call("node/0/echo", "x").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(bus_.CallCount("node/0/echo"), dispatched + 1);
  EXPECT_EQ(bus_.breaker_state("node/0/echo"), BreakerState::kOpen);

  // Service heals: drain the rejection window, then the probe closes it.
  injector_.ClearAllPolicies();
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(bus_.Call("node/0/echo", "x").ok());
  }
  auto probe = bus_.Call("node/0/echo", "x");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(bus_.breaker_state("node/0/echo"), BreakerState::kClosed);
  EXPECT_TRUE(bus_.Call("node/0/echo", "x").ok());
}

TEST_F(FaultyBusTest, BreakerRejectionsAreNeverRetried) {
  bus_.SetBreakerConfig({/*failure_threshold=*/1, /*open_rejections=*/100});
  FaultPolicy dead;
  dead.fail_probability = 1.0;
  injector_.SetPolicy("node/0/", dead);
  EXPECT_FALSE(bus_.Call("node/0/echo", "x").ok());  // opens the breaker
  size_t dispatched = bus_.CallCount("node/0/echo");

  CallOptions options;
  options.max_retries = 50;
  options.initial_backoff_us = 1;
  auto shed = bus_.Call("node/0/echo", "x", options);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  // One fast rejection, no dispatches, no retry storm.
  EXPECT_EQ(bus_.CallCount("node/0/echo"), dispatched);
}

// --- Miner quarantine -------------------------------------------------------

class BrokenMiner : public EntityMiner {
 public:
  std::string name() const override { return "broken"; }
  common::Status Process(Entity&, const MineContext&) override {
    return Status::Internal("plugin crash");
  }
};

class CountingMiner : public EntityMiner {
 public:
  explicit CountingMiner(size_t* count) : count_(count) {}
  std::string name() const override { return "counting"; }
  common::Status Process(Entity&, const MineContext&) override {
    ++*count_;
    return Status::Ok();
  }

 private:
  size_t* count_;
};

TEST(MinerQuarantineTest, RepeatedFailuresQuarantineOnlyTheSickMiner) {
  size_t processed = 0;
  MinerPipeline pipeline;
  pipeline.SetQuarantineThreshold(3);
  pipeline.AddMiner(std::make_unique<BrokenMiner>());
  pipeline.AddMiner(std::make_unique<CountingMiner>(&processed));

  // Each step is a one-entity sweep; it succeeds when no miner failed.
  Entity e("doc", "test");
  e.SetBody("hello");
  DataStore store;
  ASSERT_TRUE(store.Put(e).ok());
  auto failures = [&pipeline] {
    size_t total = 0;
    for (const MinerPipeline::MinerStats& s : pipeline.Stats()) {
      total += s.failures;
    }
    return total;
  };
  auto step = [&] {
    const size_t before = failures();
    pipeline.ProcessStore(store);
    return failures() == before;
  };

  // While the broken miner is live it fails the entity (and starves the
  // healthy miner behind it, since the chain stops at the first failure).
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(step());
  }
  EXPECT_EQ(processed, 0u);
  // Quarantined: the chain now skips it and the healthy miner runs.
  EXPECT_TRUE(step());
  EXPECT_EQ(processed, 1u);

  std::vector<MinerPipeline::MinerStats> stats = pipeline.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].failures, 3u);
  EXPECT_FALSE(stats[1].quarantined);

  pipeline.ClearQuarantines();
  EXPECT_FALSE(step());  // broken miner is back
  EXPECT_FALSE(pipeline.Stats()[0].quarantined);  // streak restarted at 1
}

// --- Acceptance: degraded cluster, honest coverage, full recovery ----------

// Twelve documents, four positive and four negative about Kodak, spread
// over the shards by the normal routing hash.
void BuildSentimentCluster(Cluster* cluster,
                           const lexicon::SentimentLexicon* lexicon,
                           const lexicon::PatternDatabase* patterns) {
  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 12; ++i) {
    std::string body;
    if (i % 3 == 0) {
      body = "Kodak impresses everyone who tried it.";
    } else if (i % 3 == 1) {
      body = "Lawsuits plague Kodak.";
    } else {
      body = "Kodak announced a quarterly meeting.";
    }
    docs.emplace_back("doc-" + std::to_string(i), body);
  }
  BatchIngestor ingestor("chaos", docs);
  ASSERT_EQ(IngestAll(ingestor, *cluster), docs.size());
  cluster->DeployMiner([lexicon, patterns] {
    return std::make_unique<AdHocSentimentMinerPlugin>(lexicon, patterns);
  });
  cluster->MineAndIndexAll();
}

std::string Summarize(const SentimentQueryResult& r) {
  std::string out = r.subject + "|" + std::to_string(r.positive_docs) + "|" +
                    std::to_string(r.negative_docs);
  for (const SentimentHit& hit : r.hits) {
    out += "|" + hit.doc_id +
           (hit.polarity == lexicon::Polarity::kPositive ? "+" : "-") +
           hit.sentence;
  }
  return out;
}

TEST(ChaosAcceptanceTest, PartitionAloneGivesExactPartialCoverage) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  Cluster cluster(4);
  BuildSentimentCluster(&cluster, &lexicon, &patterns);

  FaultInjector injector(11);
  cluster.bus().AttachFaultInjector(&injector);
  injector.Partition("node/2/");

  SearchResult search = cluster.Search("kodak");
  EXPECT_EQ(search.nodes_total, 4u);
  EXPECT_EQ(search.nodes_responded, 3u);
  EXPECT_FALSE(search.complete());
  ASSERT_EQ(search.failed_services.size(), 1u);
  EXPECT_EQ(search.failed_services[0], "node/2/search");

  injector.HealAll();
  EXPECT_TRUE(cluster.Search("kodak").complete());
}

TEST(ChaosAcceptanceTest, DegradedQueriesCompleteAndRecoverToBaseline) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  Cluster cluster(4);
  BuildSentimentCluster(&cluster, &lexicon, &patterns);
  SentimentQueryService service(&cluster);
  ASSERT_TRUE(service.RegisterService().ok());
  cluster.bus().SetBreakerConfig(
      {/*failure_threshold=*/3, /*open_rejections=*/2});

  // Fault-free baseline — for the answers and for the wf_obs counters.
  SentimentQueryResult baseline = service.Query("Kodak");
  EXPECT_EQ(baseline.positive_docs, 4u);
  EXPECT_EQ(baseline.negative_docs, 4u);
  EXPECT_TRUE(baseline.complete());
  const uint64_t opens_before =
      cluster.metrics().Snapshot().CounterValue("vinci/breaker/open_total");

  // Chaos: 20% of calls to any node service fail, and node 1 is cut off
  // from the network entirely.
  FaultInjector injector(20250806);
  FaultPolicy flaky;
  flaky.fail_probability = 0.2;
  injector.SetPolicy("node/", flaky);
  injector.Partition("node/1/");
  cluster.bus().AttachFaultInjector(&injector);

  for (int round = 0; round < 10; ++round) {
    SentimentQueryResult degraded = service.Query("Kodak");
    // Every query completes, and the coverage report is honest: with a
    // whole node partitioned, the answer can never claim all shards spoke.
    EXPECT_EQ(degraded.nodes_total, 4u);
    EXPECT_LT(degraded.nodes_responded, degraded.nodes_total);
    EXPECT_FALSE(degraded.complete());
    // Counts degrade; they never exceed the truth.
    EXPECT_LE(degraded.positive_docs, baseline.positive_docs);
    EXPECT_LE(degraded.negative_docs, baseline.negative_docs);
    EXPECT_LE(degraded.hits.size(), baseline.hits.size());
  }
  EXPECT_GT(injector.counters().partitioned, 0u);
  EXPECT_GT(injector.counters().failed, 0u);

  // The same story, told by metrics alone: the partitioned node's repeated
  // failures tripped breakers (the open counter rose) and the resilient
  // calls spent retries (the retry histogram filled in).
  {
    obs::MetricsSnapshot degraded_metrics = cluster.metrics().Snapshot();
    EXPECT_GT(degraded_metrics.CounterValue("vinci/breaker/open_total"),
              opens_before);
    const obs::HistogramSnapshot* retries =
        degraded_metrics.FindHistogram("vinci/retries_per_call");
    ASSERT_NE(retries, nullptr);
    EXPECT_GT(retries->count, 0u);
    uint64_t retried = 0;
    for (const auto& [name, value] : degraded_metrics.counters) {
      if (name.rfind("vinci/retry_total/", 0) == 0) retried += value;
    }
    EXPECT_GT(retried, 0u);
  }

  // Faults clear. Warm-up queries drain the open breakers' rejection
  // windows and let their half-open probes succeed.
  injector.HealAll();
  injector.ClearAllPolicies();
  bool breakers_closed = false;
  for (int round = 0; round < 20 && !breakers_closed; ++round) {
    (void)service.Query("Kodak");
    breakers_closed = true;
    for (size_t n = 0; n < cluster.node_count(); ++n) {
      std::string prefix = "node/" + std::to_string(n) + "/";
      for (const char* suffix : {"search", "fetch"}) {
        if (cluster.bus().breaker_state(prefix + suffix) !=
            BreakerState::kClosed) {
          breakers_closed = false;
        }
      }
    }
  }
  ASSERT_TRUE(breakers_closed);

  // Back at baseline by the metrics' account too: every breaker-state
  // gauge reads closed (0), and successful probes recorded closes.
  {
    obs::MetricsSnapshot healed_metrics = cluster.metrics().Snapshot();
    size_t state_gauges = 0;
    for (const auto& [name, value] : healed_metrics.gauges) {
      if (name.rfind("vinci/breaker/state/", 0) == 0) {
        ++state_gauges;
        EXPECT_EQ(value, 0) << name;
      }
    }
    EXPECT_GT(state_gauges, 0u);
    EXPECT_GT(healed_metrics.CounterValue("vinci/breaker/close_total"), 0u);
  }

  // With the cluster healed and every circuit closed, the answer is
  // indistinguishable from the fault-free baseline.
  SentimentQueryResult recovered = service.Query("Kodak");
  EXPECT_TRUE(recovered.complete());
  EXPECT_EQ(Summarize(recovered), Summarize(baseline));
}

TEST(ChaosAcceptanceTest, IdenticalSeedsReplayIdenticalDegradedRuns) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();

  auto run = [&lexicon, &patterns]() {
    Cluster cluster(4);
    BuildSentimentCluster(&cluster, &lexicon, &patterns);
    SentimentQueryService service(&cluster);
    WF_CHECK_OK(service.RegisterService());
    FaultInjector injector(777);
    FaultPolicy flaky;
    flaky.fail_probability = 0.3;
    flaky.corrupt_probability = 0.1;
    injector.SetPolicy("node/", flaky);
    cluster.bus().AttachFaultInjector(&injector);
    std::string trace;
    for (int round = 0; round < 5; ++round) {
      SentimentQueryResult r = service.Query("Kodak");
      trace += Summarize(r) + "#" + std::to_string(r.nodes_responded) + "/" +
               std::to_string(r.nodes_total) + ";";
    }
    return trace;
  };

  // Thread interleaving inside the scatters differs between runs; the
  // fault verdicts — and therefore the answers — must not.
  EXPECT_EQ(run(), run());
}

TEST(ChaosAcceptanceTest, TracedSearchUnderFaultsExportsOneStitchedTrace) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();

  // One traced scatter/gather search on a degraded cluster, twice from the
  // same seeds. Spans carry no timestamps and their ids are pure functions
  // of (tracer seed, parent, name, sibling order), so the two exports must
  // be byte-identical even though thread scheduling and retry backoffs are
  // not.
  auto run = [&lexicon, &patterns] {
    Cluster cluster(4);
    BuildSentimentCluster(&cluster, &lexicon, &patterns);
    obs::Tracer tracer(20250806);
    cluster.AttachTracer(&tracer);
    FaultInjector injector(20250806);
    FaultPolicy flaky;
    flaky.fail_probability = 0.2;
    injector.SetPolicy("node/", flaky);
    injector.Partition("node/1/");
    cluster.bus().AttachFaultInjector(&injector);
    (void)cluster.Search("kodak");
    return tracer.ExportText();
  };

  std::string text = run();
  EXPECT_EQ(text, run());

  // Exactly one root span — the query — and it reports its coverage.
  size_t roots = 0, pos = 0;
  while ((pos = text.find("parent=-", pos)) != std::string::npos) {
    ++roots;
    pos += 8;
  }
  EXPECT_EQ(roots, 1u);
  size_t name_at = text.find("name=cluster/search");
  ASSERT_NE(name_at, std::string::npos);
  EXPECT_NE(text.find("nodes_total=4"), std::string::npos);

  // Every node's search call is a child of that root — including the
  // partitioned node's, whose span simply records the failure.
  size_t span_at = text.rfind("span=", name_at);
  ASSERT_NE(span_at, std::string::npos);
  std::string root_hex = text.substr(span_at + 5, 16);
  for (size_t n = 0; n < 4; ++n) {
    std::string child = "parent=" + root_hex + " name=node/" +
                        std::to_string(n) + "/search";
    EXPECT_NE(text.find(child), std::string::npos) << child << "\n" << text;
  }
}

// --- Node crash / restart lifecycle -----------------------------------------

// A fresh directory under /tmp, removed on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_("/tmp/wf_chaos_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(NodeLifecycleTest, CrashedNodeDegradesCoverageAndRestartHealsIt) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  ScopedTempDir dir("lifecycle");
  Cluster cluster(4);
  ASSERT_TRUE(cluster.EnableDurability({dir.path(), 0}).ok());
  BuildSentimentCluster(&cluster, &lexicon, &patterns);

  SearchResult healthy = cluster.Search("kodak");
  ASSERT_TRUE(healthy.complete());
  ASSERT_EQ(healthy.docs.size(), 12u);
  ASSERT_TRUE(cluster.CheckpointAll().ok());

  // Kill a shard. Coverage degrades honestly on both the query and the
  // stats paths, and writes routed to it are refused, not dropped.
  const size_t victim = 2;
  ASSERT_TRUE(cluster.CrashNode(victim).ok());
  EXPECT_FALSE(cluster.IsNodeUp(victim));
  EXPECT_EQ(cluster.NodesUp(), 3u);
  EXPECT_EQ(cluster.CrashNode(victim).code(),
            StatusCode::kFailedPrecondition);  // double-kill is refused

  SearchResult degraded = cluster.Search("kodak");
  EXPECT_EQ(degraded.nodes_total, 4u);
  EXPECT_EQ(degraded.nodes_responded, 3u);
  EXPECT_FALSE(degraded.complete());
  ASSERT_EQ(degraded.failed_services.size(), 1u);
  EXPECT_EQ(degraded.failed_services[0], "node/2/search");
  EXPECT_LT(degraded.docs.size(), healthy.docs.size());

  ClusterStats down_stats = cluster.CollectStats();
  EXPECT_EQ(down_stats.nodes_total, 4u);
  EXPECT_EQ(down_stats.nodes_responded, 3u);
  ASSERT_EQ(down_stats.failed_services.size(), 1u);
  EXPECT_EQ(down_stats.failed_services[0], "wfstats/node/2");
  EXPECT_EQ(down_stats.merged.GaugeValue("cluster/nodes_up"), 3);
  EXPECT_EQ(down_stats.merged.CounterValue("cluster/node_crashes_total"), 1u);

  bool saw_unavailable = false;
  for (int i = 0; i < 4 && !saw_unavailable; ++i) {
    Entity probe("probe-" + std::to_string(i), "test");
    if (cluster.Route(probe.id()) == victim) {
      EXPECT_EQ(cluster.Ingest(std::move(probe)).code(),
                StatusCode::kUnavailable);
      saw_unavailable = true;
    }
  }

  // Restart: the shard recovers from its checkpoint and rejoins; coverage
  // returns to complete with the same answer as before the crash.
  ASSERT_TRUE(cluster.RestartNode(victim).ok());
  EXPECT_TRUE(cluster.IsNodeUp(victim));
  EXPECT_EQ(cluster.RestartNode(victim).code(),
            StatusCode::kFailedPrecondition);  // double-restart is refused

  SearchResult healed = cluster.Search("kodak");
  EXPECT_TRUE(healed.complete());
  EXPECT_EQ(healed.docs, healthy.docs);
  ClusterStats up_stats = cluster.CollectStats();
  EXPECT_TRUE(up_stats.complete());
  EXPECT_EQ(up_stats.merged.GaugeValue("cluster/nodes_up"), 4);
  EXPECT_EQ(up_stats.merged.CounterValue("cluster/node_restarts_total"), 1u);
}

TEST(NodeLifecycleTest, NonDurableClusterCannotRestartACrashedNode) {
  Cluster cluster(2);
  ASSERT_TRUE(cluster.CrashNode(1).ok());
  EXPECT_EQ(cluster.RestartNode(1).code(), StatusCode::kFailedPrecondition);
  // The crash itself still works: a non-durable node can die, it just
  // cannot come back.
  EXPECT_FALSE(cluster.IsNodeUp(1));
}

// --- Acceptance: kill mid-ingest, torn WAL tail, recover, heal --------------

// The full durability story, asserted from metrics and search results
// alone: a node is killed mid-ingest leaving a torn WAL tail; while it is
// down queries degrade honestly; after restart it recovers every acked
// write, detects the torn tail exactly once, resurrects nothing partial,
// and the healed cluster's answers are byte-identical to a never-crashed
// run over the same documents.
TEST(CrashRecoveryAcceptanceTest, KillMidIngestRecoverToBaselineAnswers) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();

  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 12; ++i) {
    std::string body;
    if (i % 3 == 0) {
      body = "Kodak impresses everyone who tried it.";
    } else if (i % 3 == 1) {
      body = "Lawsuits plague Kodak.";
    } else {
      body = "Kodak announced a quarterly meeting.";
    }
    docs.emplace_back("doc-" + std::to_string(i), body);
  }
  auto first_half = std::vector<std::pair<std::string, std::string>>(
      docs.begin(), docs.begin() + 6);
  auto second_half = std::vector<std::pair<std::string, std::string>>(
      docs.begin() + 6, docs.end());
  auto deploy = [&lexicon, &patterns](Cluster* cluster) {
    cluster->DeployMiner([&lexicon, &patterns] {
      return std::make_unique<AdHocSentimentMinerPlugin>(&lexicon, &patterns);
    });
  };

  // Run A: the never-crashed baseline over the same documents.
  ScopedTempDir dir_a("baseline");
  Cluster baseline_cluster(4);
  ASSERT_TRUE(baseline_cluster.EnableDurability({dir_a.path(), 0}).ok());
  deploy(&baseline_cluster);
  {
    BatchIngestor ingestor("chaos", docs);
    ASSERT_EQ(IngestAll(ingestor, baseline_cluster), docs.size());
  }
  baseline_cluster.MineAndIndexAll();
  SentimentQueryService baseline_service(&baseline_cluster);
  ASSERT_TRUE(baseline_service.RegisterService().ok());
  SentimentQueryResult baseline = baseline_service.Query("Kodak");
  ASSERT_TRUE(baseline.complete());
  ASSERT_EQ(baseline.positive_docs, 4u);
  ASSERT_EQ(baseline.negative_docs, 4u);

  // Run B: same documents, but the shard owning doc-6 is killed mid-ingest
  // by a storage crash that tears its WAL append mid-frame.
  ScopedTempDir dir_b("chaos");
  common::StorageFaultInjector storage(20260806);
  Cluster cluster(4);
  ASSERT_TRUE(cluster.EnableDurability({dir_b.path(), 0}, &storage).ok());
  deploy(&cluster);
  {
    BatchIngestor ingestor("chaos", first_half);
    ASSERT_EQ(IngestAll(ingestor, cluster), first_half.size());
  }
  ASSERT_TRUE(cluster.CheckpointAll().ok());

  const size_t victim = cluster.Route("doc-6");
  storage.ArmCrash(
      dir_b.path() + "/node-" + std::to_string(victim),
      /*after_appends=*/0, /*torn_bytes=*/10);

  size_t duplicates = 0;
  std::vector<Entity> unacked;
  {
    BatchIngestor ingestor("chaos", second_half);
    size_t stored = IngestAll(ingestor, cluster, &duplicates, &unacked);
    EXPECT_EQ(stored + unacked.size(), second_half.size());
  }
  // Everything routed to the victim was refused — first by the torn
  // append, then by the dead disk — and handed back, not dropped.
  ASSERT_FALSE(unacked.empty());
  EXPECT_EQ(duplicates, 0u);
  for (const Entity& e : unacked) {
    EXPECT_EQ(cluster.Route(e.id()), victim);
    EXPECT_FALSE(cluster.node(victim).store().Contains(e.id()));
  }
  const size_t acked_total = docs.size() - unacked.size();
  EXPECT_EQ(cluster.TotalEntities(), acked_total);

  // The machine goes down. While it is down, coverage is honestly partial.
  ASSERT_TRUE(cluster.CrashNode(victim).ok());
  SearchResult down = cluster.Search("kodak");
  EXPECT_EQ(down.nodes_total, 4u);
  EXPECT_EQ(down.nodes_responded, 3u);
  EXPECT_FALSE(down.complete());
  ClusterStats down_stats = cluster.CollectStats();
  EXPECT_FALSE(down_stats.complete());
  EXPECT_EQ(down_stats.merged.GaugeValue("cluster/nodes_up"), 3);

  // Power restored; the node restarts and recovers from disk.
  storage.ClearCrashes();
  ASSERT_TRUE(cluster.RestartNode(victim).ok());

  // The recovery story, told by the merged metrics alone: the torn tail
  // was detected exactly once, and no acked write was lost (every acked
  // entity is back in a store).
  ClusterStats recovered_stats = cluster.CollectStats();
  ASSERT_TRUE(recovered_stats.complete());
  EXPECT_EQ(recovered_stats.merged.CounterValue(
                "wal/torn_tail_detected_total"),
            1u);
  EXPECT_EQ(recovered_stats.merged.GaugeValue("cluster/nodes_up"), 4);
  EXPECT_EQ(recovered_stats.merged.CounterValue("cluster/node_crashes_total"),
            1u);
  EXPECT_EQ(recovered_stats.merged.CounterValue(
                "cluster/node_restarts_total"),
            1u);
  EXPECT_EQ(cluster.TotalEntities(), acked_total);

  // Re-drive the refused writes — the contract is that the caller still
  // holds them precisely because they were never acked.
  for (Entity& e : unacked) {
    ASSERT_TRUE(cluster.Ingest(std::move(e)).ok());
  }
  EXPECT_EQ(cluster.TotalEntities(), docs.size());

  // Healed: coverage is complete and the sentiment answer is
  // byte-identical to the never-crashed baseline.
  cluster.MineAndIndexAll();
  SentimentQueryService service(&cluster);
  ASSERT_TRUE(service.RegisterService().ok());
  SentimentQueryResult recovered = service.Query("Kodak");
  EXPECT_TRUE(recovered.complete());
  EXPECT_EQ(Summarize(recovered), Summarize(baseline));
  SearchResult healed = cluster.Search("kodak");
  EXPECT_TRUE(healed.complete());
  EXPECT_EQ(healed.docs.size(), 12u);
}

}  // namespace
}  // namespace wf::platform
