// wf_obs test suite: metrics registry semantics, the snapshot merge
// algebra the cluster roll-up depends on, wire/JSON exports, deterministic
// tracing, and the wfstats service end to end on a small cluster.
//
// The determinism contract under test (DESIGN.md "Observability"): every
// metric except timing histograms, and every span id, must replay
// byte-identically from the same seed — several tests here literally
// compare export strings across two independently constructed runs.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "tests/json_checker.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "platform/cluster.h"
#include "platform/entity.h"
#include "platform/fault.h"
#include "platform/vinci.h"

namespace wf::obs {
namespace {

using ::wf::common::StatusCode;

using ::wf::testing::JsonChecker;

TEST(JsonCheckerTest, AcceptsAndRejectsTheRightShapes) {
  // The checker itself has to be trustworthy before anything below is.
  EXPECT_TRUE(JsonChecker::Valid("{}"));
  EXPECT_TRUE(JsonChecker::Valid("[1,-2.5,1e3,\"a\\n\",true,null,{}]"));
  EXPECT_TRUE(JsonChecker::Valid("{\"a\":{\"b\":[]},\"c\":\"\\u00e9\"}"));
  EXPECT_FALSE(JsonChecker::Valid(""));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":1,}"));     // trailing comma
  EXPECT_FALSE(JsonChecker::Valid("{\"a\" 1}"));      // missing colon
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":1} junk"));  // trailing garbage
  EXPECT_FALSE(JsonChecker::Valid("\"unterminated"));
  EXPECT_FALSE(JsonChecker::Valid("\"raw\ncontrol\""));
  EXPECT_FALSE(JsonChecker::Valid("01x"));
}

// --- Counters, gauges, histograms -------------------------------------------

TEST(MetricsRegistryTest, CountersAndGaugesAccumulate) {
  MetricsRegistry registry;
  Counter* hits = registry.GetCounter("test/hits");
  hits->Add();
  hits->Add(41);
  // Re-getting returns the same handle, not a fresh metric.
  EXPECT_EQ(registry.GetCounter("test/hits"), hits);
  EXPECT_EQ(hits->value(), 42u);

  Gauge* level = registry.GetGauge("test/level");
  level->Set(10);
  level->Add(-3);
  EXPECT_EQ(level->value(), 7);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("test/hits"), 42u);
  EXPECT_EQ(snap.GaugeValue("test/level"), 7);
  EXPECT_EQ(snap.CounterValue("test/absent"), 0u);
  EXPECT_EQ(snap.GaugeValue("test/absent"), 0);
  EXPECT_EQ(snap.FindHistogram("test/absent"), nullptr);
}

TEST(MetricsRegistryTest, HistogramBucketsByInclusiveUpperBound) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test/h", {10, 100});
  for (uint64_t v : {5u, 10u, 11u, 100u, 101u, 5000u}) h->Record(v);

  MetricsSnapshot full = registry.Snapshot();
  const HistogramSnapshot* snap = full.FindHistogram("test/h");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->bounds, (std::vector<uint64_t>{10, 100}));
  // <=10, <=100, overflow.
  EXPECT_EQ(snap->counts, (std::vector<uint64_t>{2, 2, 2}));
  EXPECT_EQ(snap->count, 6u);
  EXPECT_EQ(snap->sum, 5u + 10 + 11 + 100 + 101 + 5000);
  EXPECT_FALSE(snap->timing);
}

TEST(MetricsRegistryTest, BucketLayoutHelpers) {
  EXPECT_EQ(ExponentialBounds(1, 2.0, 4), (std::vector<uint64_t>{1, 2, 4, 8}));
  EXPECT_EQ(LinearBounds(0, 5, 3), (std::vector<uint64_t>{0, 5, 10}));
  EXPECT_EQ(DefaultRetryBounds().front(), 0u);
  EXPECT_EQ(DefaultRetryBounds().back(), 15u);
  // Latency bounds must be strictly ascending (merge and bucketing both
  // assume it).
  const std::vector<uint64_t>& latency = DefaultLatencyBoundsUs();
  for (size_t i = 1; i < latency.size(); ++i) {
    EXPECT_LT(latency[i - 1], latency[i]);
  }
}

TEST(MetricsRegistryTest, MetricNameValidation) {
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("vinci/calls/node/0:a.b-c_d"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName(""));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("has space"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("has=equals"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("has\nnewline"));
}

TEST(MetricsRegistryTest, ExportOrderIsIndependentOfRegistrationOrder) {
  // Same events, opposite registration order, different stripes — the
  // exports must still be byte-identical. This is the property that makes
  // golden-comparing two runs meaningful at all.
  MetricsRegistry a;
  a.GetCounter("z/last")->Add(1);
  a.GetGauge("m/mid")->Set(-4);
  a.GetHistogram("a/first", {1, 2})->Record(2);

  MetricsRegistry b;
  b.GetHistogram("a/first", {1, 2})->Record(2);
  b.GetGauge("m/mid")->Set(-4);
  b.GetCounter("z/last")->Add(1);

  EXPECT_EQ(a.Snapshot().ExportText(), b.Snapshot().ExportText());
  EXPECT_EQ(a.Snapshot().ExportJson(), b.Snapshot().ExportJson());
  EXPECT_EQ(a.Snapshot().ToWire(), b.Snapshot().ToWire());
}

TEST(MetricsRegistryTest, TimingHistogramsAreQuarantinedFromDeterministicExport) {
  MetricsRegistry registry;
  registry.GetCounter("det/counter")->Add(3);
  registry.GetHistogram("det/hist", {10})->Record(1);
  Histogram* timing =
      registry.GetHistogram("wall/latency_us", {10}, /*timing=*/true);
  {
    ScopedTimer timer(timing);  // records some wall-clock duration
  }
  EXPECT_EQ(timing->count(), 1u);

  MetricsSnapshot snap = registry.Snapshot();
  ExportOptions deterministic;
  deterministic.include_timings = false;
  std::string full = snap.ExportText();
  std::string det = snap.ExportText(deterministic);
  EXPECT_NE(full.find("wall/latency_us"), std::string::npos);
  EXPECT_EQ(det.find("wall/latency_us"), std::string::npos);
  EXPECT_NE(det.find("det/hist"), std::string::npos);
  EXPECT_EQ(snap.ExportJson(deterministic).find("wall/latency_us"),
            std::string::npos);
}

TEST(ScopedTimerTest, NullHistogramIsANoOp) {
  ScopedTimer timer(nullptr);  // must not crash on scope exit
  uint64_t t0 = MonotonicNowUs();
  EXPECT_GE(MonotonicNowUs(), t0);
}

// --- Merge algebra ----------------------------------------------------------

TEST(MetricsSnapshotTest, MergeSumsEveryKind) {
  MetricsRegistry ra, rb;
  ra.GetCounter("c")->Add(2);
  rb.GetCounter("c")->Add(3);
  rb.GetCounter("only_b")->Add(7);
  ra.GetGauge("g")->Set(10);
  rb.GetGauge("g")->Set(-4);
  ra.GetHistogram("h", {10})->Record(5);
  rb.GetHistogram("h", {10})->Record(50);

  MetricsSnapshot merged = ra.Snapshot();
  ASSERT_TRUE(merged.MergeFrom(rb.Snapshot()).ok());
  EXPECT_EQ(merged.CounterValue("c"), 5u);
  EXPECT_EQ(merged.CounterValue("only_b"), 7u);
  EXPECT_EQ(merged.GaugeValue("g"), 6);
  const HistogramSnapshot* h = merged.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 55u);
}

TEST(MetricsSnapshotTest, MergeRejectsMismatchedBoundsWithoutMutating) {
  MetricsRegistry ra, rb;
  ra.GetCounter("c")->Add(1);
  ra.GetHistogram("h", {1, 2})->Record(1);
  rb.GetCounter("c")->Add(100);
  rb.GetHistogram("h", {1, 3})->Record(1);

  MetricsSnapshot left = ra.Snapshot();
  std::string before = left.ExportText();
  common::Status status = left.MergeFrom(rb.Snapshot());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // Validation happens before any mutation: the counter that *could* have
  // merged must not have (a half-applied roll-up would be worse than none).
  EXPECT_EQ(left.ExportText(), before);
}

// A randomized snapshot over a fixed metric-name/bounds universe, so any
// two draws are merge-compatible.
MetricsSnapshot RandomSnapshot(common::Rng* rng) {
  MetricsRegistry registry;
  const std::vector<std::string> names = {"alpha", "beta/1", "gamma.x"};
  for (const std::string& name : names) {
    if (rng->Bernoulli(0.8)) {
      registry.GetCounter("count/" + name)
          ->Add(static_cast<uint64_t>(rng->Uniform(0, 1000)));
    }
    if (rng->Bernoulli(0.8)) {
      registry.GetGauge("level/" + name)->Set(rng->Uniform(-100, 100));
    }
    if (rng->Bernoulli(0.8)) {
      Histogram* h = registry.GetHistogram("hist/" + name, {4, 16, 64});
      int64_t draws = rng->Uniform(0, 20);
      for (int64_t i = 0; i < draws; ++i) {
        h->Record(static_cast<uint64_t>(rng->Uniform(0, 128)));
      }
    }
  }
  return registry.Snapshot();
}

TEST(MetricsSnapshotTest, PropertyMergeIsAssociativeAndCommutative) {
  // The cluster roll-up merges node exports in whatever order the scatter
  // returns them; the result must not depend on that order.
  common::Rng rng(20260806);
  for (int round = 0; round < 25; ++round) {
    MetricsSnapshot a = RandomSnapshot(&rng);
    MetricsSnapshot b = RandomSnapshot(&rng);
    MetricsSnapshot c = RandomSnapshot(&rng);

    MetricsSnapshot ab = a, ba = b;
    ASSERT_TRUE(ab.MergeFrom(b).ok());
    ASSERT_TRUE(ba.MergeFrom(a).ok());
    EXPECT_EQ(ab.ExportText(), ba.ExportText());  // commutative

    MetricsSnapshot ab_c = ab, bc = b, a_bc = a;
    ASSERT_TRUE(ab_c.MergeFrom(c).ok());
    ASSERT_TRUE(bc.MergeFrom(c).ok());
    ASSERT_TRUE(a_bc.MergeFrom(bc).ok());
    EXPECT_EQ(ab_c.ExportText(), a_bc.ExportText());  // associative
  }
}

// --- Wire + JSON forms ------------------------------------------------------

TEST(MetricsSnapshotTest, WireFormRoundTripsExactly) {
  MetricsRegistry registry;
  registry.GetCounter("vinci/calls/node/0/search")->Add(17);
  registry.GetGauge("vinci/breaker/state/node/0/search")->Set(-1);
  registry.GetHistogram("vinci/retries_per_call", DefaultRetryBounds())
      ->Record(3);
  registry.GetHistogram("lat", {1, 2}, /*timing=*/true)->Record(9);
  MetricsSnapshot snap = registry.Snapshot();

  auto round = MetricsSnapshot::FromWire(snap.ToWire());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->ExportText(), snap.ExportText());
  EXPECT_EQ(round->ToWire(), snap.ToWire());
  // The timing flag survives the trip — deterministic exports of a merged
  // roll-up still quarantine remote timing histograms.
  const HistogramSnapshot* lat = round->FindHistogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_TRUE(lat->timing);
}

TEST(MetricsSnapshotTest, MalformedWireLinesAreCorruption) {
  EXPECT_TRUE(MetricsSnapshot::FromWire("").ok());  // empty export is fine
  for (const char* bad : {
           "x name 1",            // unknown record type
           "c name",              // missing value
           "c name one",          // non-numeric value
           "c bad name 1",        // space in name rejected by the validator
           "g name 1 extra",      // trailing field
           "h name 2 - 1 0",      // timing flag out of range
           "h name 0 1,2 1,1 0",  // counts must be bounds+1 long
           "h name 0 1,2 x,1,1 0",  // non-numeric bucket count
           // Counters, bounds, bucket counts and sums are unsigned: a sign
           // is malformed, not a count wrapped to 2^64 - 1.
           "c name -1",
           "c name +7",
           "h name 0 1 -1,1 0",
           "h name 0 1 +7,1 0",
           "h name 0 -1 1,1 0",
           "h name 0 1 1,1 -1",
       }) {
    common::Result<MetricsSnapshot> result = MetricsSnapshot::FromWire(bad);
    ASSERT_FALSE(result.ok()) << "accepted: " << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption) << bad;
  }
}

TEST(MetricsSnapshotTest, JsonExportIsWellFormedIncludingNastyNames) {
  MetricsRegistry registry;
  registry.GetCounter("quote.free/but-odd:chars_ok")->Add(1);
  registry.GetGauge("negative")->Set(-42);
  registry.GetHistogram("h", {1})->Record(2);
  registry.GetHistogram("t", {}, /*timing=*/true)->Record(2);
  std::string json = registry.Snapshot().ExportJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;

  // Escaping handles everything a string attribute could carry.
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_TRUE(JsonChecker::Valid(common::StrFormat(
      "\"%s\"", JsonEscape(std::string(1, '\x01')).c_str())));
}

// --- Concurrency (the TSan target) ------------------------------------------

TEST(MetricsConcurrencyTest, ParallelRecordingLosesNothing) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      // Each thread hammers one shared metric of every kind plus one
      // private counter, exercising both handle reuse and first-use
      // registration races across stripes.
      Counter* shared = registry.GetCounter("shared/counter");
      Histogram* hist = registry.GetHistogram("shared/hist", {8, 64});
      std::string own = "private/counter/" + std::to_string(t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shared->Add(1);
        hist->Record(i % 100);
        registry.GetGauge("shared/gauge")->Add(1);
        registry.GetCounter(own)->Add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("shared/counter"), kThreads * kPerThread);
  EXPECT_EQ(snap.GaugeValue("shared/gauge"),
            static_cast<int64_t>(kThreads * kPerThread));
  const HistogramSnapshot* hist = snap.FindHistogram("shared/hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.CounterValue("private/counter/" + std::to_string(t)),
              kPerThread);
  }
}

// --- Tracing ----------------------------------------------------------------

TEST(TraceTest, IdHexRoundTrip) {
  EXPECT_EQ(IdToHex(0x0123456789abcdefULL).size(), 16u);
  EXPECT_EQ(IdFromHex(IdToHex(0x0123456789abcdefULL)), 0x0123456789abcdefULL);
  EXPECT_EQ(IdFromHex(IdToHex(1)), 1u);
  EXPECT_EQ(IdFromHex(""), 0u);
  EXPECT_EQ(IdFromHex("abc"), 0u);                   // too short
  EXPECT_EQ(IdFromHex("00000000000000001"), 0u);     // too long
  EXPECT_EQ(IdFromHex("000000000000000g"), 0u);      // non-hex digit
}

TEST(TraceTest, ContextPropagatesOnlyWhenValid) {
  std::vector<std::pair<std::string, std::string>> fields = {{"term", "x"}};
  AppendContext(SpanContext{}, &fields);
  EXPECT_EQ(fields.size(), 1u);  // invalid context adds nothing

  Tracer tracer(1);
  Span root = tracer.StartTrace("q");
  AppendContext(root.context(), &fields);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1].first, kTraceIdKey);
  EXPECT_EQ(fields[2].first, kSpanIdKey);
  EXPECT_EQ(IdFromHex(fields[1].second), root.context().trace_id);
  EXPECT_EQ(IdFromHex(fields[2].second), root.context().span_id);
}

TEST(TraceTest, InertSpansRecordNothing) {
  Tracer tracer(1);
  {
    Span inert;                                      // default-constructed
    Span no_parent = tracer.StartSpan(SpanContext{}, "orphan");
    EXPECT_FALSE(inert.active());
    EXPECT_FALSE(no_parent.active());
    no_parent.SetAttr("k", "v");                     // all no-ops
    no_parent.Finish();
  }
  EXPECT_EQ(tracer.finished_count(), 0u);
}

TEST(TraceTest, DestructorAndMoveFinishExactlyOnce) {
  Tracer tracer(7);
  {
    Span a = tracer.StartTrace("outer");
    a.SetAttr("status", "ok");
    Span b = std::move(a);        // a becomes inert, b owns the span
    EXPECT_FALSE(a.active());     // NOLINT(bugprone-use-after-move): spec'd
    EXPECT_TRUE(b.active());
  }                               // b's destructor records it — once
  EXPECT_EQ(tracer.finished_count(), 1u);
  EXPECT_NE(tracer.ExportText().find("name=outer status=ok"),
            std::string::npos);
}

TEST(TraceTest, IdsAreSeedDeterministicAndOrderIndependent) {
  // Two tracers with the same seed replay identical ids; a scatter's
  // children (distinct names under one parent) get the same ids whatever
  // order threads create them in.
  auto run = [](uint64_t seed, bool reversed) {
    Tracer tracer(seed);
    Span root = tracer.StartTrace("query");
    std::vector<std::string> children = {"node/0/search", "node/1/search",
                                         "node/2/search"};
    if (reversed) {
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        tracer.StartSpan(root.context(), *it).Finish();
      }
    } else {
      for (const std::string& name : children) {
        tracer.StartSpan(root.context(), name).Finish();
      }
    }
    root.Finish();
    return tracer.ExportText();
  };
  std::string forward = run(99, false);
  EXPECT_EQ(forward, run(99, false));
  EXPECT_EQ(forward, run(99, true));  // creation order is irrelevant
  EXPECT_NE(forward, run(100, false));
}

TEST(TraceTest, SequentialSameNameChildrenGetDistinctIds) {
  // Retries of one call are same-name siblings: the per-(parent, name)
  // sequence must keep their ids apart.
  Tracer tracer(5);
  Span root = tracer.StartTrace("query");
  Span first = tracer.StartSpan(root.context(), "node/0/fetch");
  Span second = tracer.StartSpan(root.context(), "node/0/fetch");
  EXPECT_NE(first.context().span_id, second.context().span_id);
  EXPECT_EQ(first.context().trace_id, second.context().trace_id);
}

TEST(TraceTest, ExportsAreStitchedAndWellFormed) {
  Tracer tracer(3);
  Span root = tracer.StartTrace("cluster/search");
  SpanContext root_ctx = root.context();
  Span child = tracer.StartSpan(root_ctx, "node/0/search");
  SpanContext child_ctx = child.context();
  child.Finish();
  root.Finish();

  EXPECT_EQ(child_ctx.trace_id, root_ctx.trace_id);
  std::string text = tracer.ExportText();
  EXPECT_NE(text.find("parent=- name=cluster/search"), std::string::npos);
  EXPECT_NE(text.find("parent=" + IdToHex(root_ctx.span_id) +
                      " name=node/0/search"),
            std::string::npos);
  EXPECT_TRUE(JsonChecker::Valid(tracer.ExportJson()));

  tracer.Clear();
  EXPECT_EQ(tracer.finished_count(), 0u);
  EXPECT_EQ(tracer.ExportJson(), "[]");
}

// --- wfstats + traced search on a live cluster ------------------------------

platform::Cluster* BuildSmallCluster(platform::Cluster* cluster) {
  const char* bodies[] = {"kodak shines", "kodak struggles", "fuji ships",
                          "kodak and fuji compete", "quiet day", "more kodak"};
  int i = 0;
  for (const char* body : bodies) {
    platform::Entity e("doc-" + std::to_string(i++), "page");
    e.SetBody(body);
    WF_CHECK_OK(cluster->Ingest(std::move(e)));
  }
  cluster->MineAndIndexAll();
  return cluster;
}

TEST(WfstatsServiceTest, ExportsValidJsonAndMergeableWire) {
  platform::Cluster cluster(2);
  BuildSmallCluster(&cluster);
  (void)cluster.Search("kodak");

  for (size_t n = 0; n < cluster.node_count(); ++n) {
    std::string service = cluster.node(n).StatsServiceName();
    // JSON view: must parse — this is the assertion check.sh leans on.
    auto json = cluster.bus().Call(
        service, platform::EncodeMessage({{"format", "json"}}));
    ASSERT_TRUE(json.ok()) << service;
    std::string payload = platform::GetMessageField(*json, "stats");
    EXPECT_TRUE(JsonChecker::Valid(payload)) << payload;
    EXPECT_EQ(platform::GetMessageField(*json, "node"), std::to_string(n));

    // Wire view: must parse into a mergeable snapshot with real content.
    auto wire = cluster.bus().Call(
        service, platform::EncodeMessage({{"format", "wire"}}));
    ASSERT_TRUE(wire.ok());
    auto snapshot = obs::MetricsSnapshot::FromWire(
        platform::GetMessageField(*wire, "stats"));
    ASSERT_TRUE(snapshot.ok());
    // The node-side counter is present whatever this shard's doc count is
    // (the cross-node total is asserted in CollectStatsRollsUpEveryNode).
    EXPECT_EQ(snapshot->counters.count("index/indexed_entities_total"), 1u);

    // Text view: one metric per line, starts with a known record type.
    auto text = cluster.bus().Call(
        service, platform::EncodeMessage({{"format", "text"}}));
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(platform::GetMessageField(*text, "stats").rfind("counter ", 0),
              0u);
  }
}

TEST(WfstatsServiceTest, CollectStatsRollsUpEveryNode) {
  platform::Cluster cluster(3);
  BuildSmallCluster(&cluster);
  (void)cluster.Search("kodak");
  (void)cluster.Search("fuji");

  platform::ClusterStats stats = cluster.CollectStats();
  EXPECT_EQ(stats.nodes_total, 3u);
  EXPECT_TRUE(stats.complete()) << stats.failed_services.size();
  // Node-side counters roll up to cluster truth...
  EXPECT_EQ(stats.merged.CounterValue("index/indexed_entities_total"),
            cluster.TotalEntities());
  EXPECT_EQ(static_cast<size_t>(stats.merged.GaugeValue("store/entities")),
            cluster.TotalEntities());
  // ...alongside the cluster's own bus-level counters.
  EXPECT_EQ(stats.merged.CounterValue("cluster/searches_total"), 2u);
  EXPECT_EQ(stats.merged.CounterValue("ingest/stored_total"), 6u);
}

TEST(WfstatsServiceTest, PartitionedNodeIsReportedNotMerged) {
  platform::Cluster cluster(2);
  BuildSmallCluster(&cluster);
  platform::FaultInjector injector(17);
  cluster.bus().AttachFaultInjector(&injector);
  injector.Partition("wfstats/node/1");

  platform::ClusterStats stats = cluster.CollectStats();
  EXPECT_EQ(stats.nodes_total, 2u);
  EXPECT_EQ(stats.nodes_responded, 1u);
  EXPECT_FALSE(stats.complete());
  ASSERT_EQ(stats.failed_services.size(), 1u);
  EXPECT_EQ(stats.failed_services[0], "wfstats/node/1");
}

// The acceptance property for the whole subsystem: a traced, fault-injected
// run exports byte-identical metrics (timings quarantined) and traces
// across two identically-seeded executions, and the trace stitches the
// scatter under a single root.
TEST(TracedClusterTest, SameSeedRunsExportIdenticalMetricsAndTraces) {
  auto run = [] {
    platform::Cluster cluster(3);
    BuildSmallCluster(&cluster);
    obs::Tracer tracer(4242);
    cluster.AttachTracer(&tracer);
    platform::FaultInjector injector(31337);
    platform::FaultPolicy flaky;
    flaky.fail_probability = 0.2;
    injector.SetPolicy("node/", flaky);
    cluster.bus().AttachFaultInjector(&injector);

    for (int i = 0; i < 8; ++i) {
      (void)cluster.Search(i % 2 == 0 ? "kodak" : "fuji");
    }
    ExportOptions deterministic;
    deterministic.include_timings = false;
    return cluster.metrics().Snapshot().ExportText(deterministic) + "----\n" +
           tracer.ExportText();
  };

  std::string first = run();
  EXPECT_EQ(first, run());

  // Structure: every search produced one root and one child per scattered
  // node service, all under the root's trace id.
  platform::Cluster cluster(3);
  BuildSmallCluster(&cluster);
  obs::Tracer tracer(4242);
  cluster.AttachTracer(&tracer);
  (void)cluster.Search("kodak");
  std::string text = tracer.ExportText();
  size_t roots = 0, children = 0;
  size_t pos = 0;
  while ((pos = text.find("parent=-", pos)) != std::string::npos) {
    ++roots;
    pos += 8;
  }
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    for (const char* suffix : {"search", "stats", "fetch"}) {
      std::string needle =
          "name=node/" + std::to_string(n) + "/" + suffix;
      if (text.find(needle) != std::string::npos) ++children;
    }
  }
  EXPECT_EQ(roots, 1u);
  // The scatter hits every node/* service; each dispatched call is a child.
  EXPECT_EQ(children, cluster.node_count() * 3);
  EXPECT_EQ(tracer.finished_count(), 1 + cluster.node_count() * 3);
}

}  // namespace
}  // namespace wf::obs
