// Serving-layer suite: end-to-end deadline propagation (front door →
// Cluster::Search → per-service VinciBus calls), the gray-failure
// slow-node fault policy, and the overload-robust front door — admission
// control, load shedding, coalescing, per-tenant quotas, and the result
// cache with exact re-mine invalidation.
//
// The acceptance scenario at the end drives the front door at roughly 10x
// its configured capacity with 20% injected faults and one ramping slow
// node, and checks the robustness contract: sheds are honest (kUnavailable
// with retry-after, never a hang), no downstream handler ever runs past
// its deadline (the bus's tripwire counter stays zero), and once the chaos
// clears the same queries answer byte-identically to the unloaded run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "gtest/gtest.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "platform/cluster.h"
#include "platform/deadline.h"
#include "platform/fault.h"
#include "platform/health.h"
#include "platform/ingest.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"
#include "platform/vinci.h"
#include "serve/front_door.h"

namespace wf::serve {
namespace {

using ::wf::common::Status;
using ::wf::common::StatusCode;
using ::wf::platform::AppendDeadline;
using ::wf::platform::BatchIngestor;
using ::wf::platform::CallOptions;
using ::wf::platform::Cluster;
using ::wf::platform::Deadline;
using ::wf::platform::DeadlineFromRequest;
using ::wf::platform::EncodeMessage;
using ::wf::platform::FaultInjector;
using ::wf::platform::FaultPolicy;
using ::wf::platform::IngestAll;
using ::wf::platform::kDeadlineUsKey;
using ::wf::platform::SearchResult;
using ::wf::platform::SentimentQueryResult;
using ::wf::platform::SentimentQueryService;
using ::wf::platform::SlowNodePolicy;
using ::wf::platform::VinciBus;

// --- Deadline ----------------------------------------------------------------

TEST(DeadlineTest, BasicsRemainingAndCallBudget) {
  Deadline inf = Deadline::Infinite();
  EXPECT_TRUE(inf.infinite());
  EXPECT_FALSE(inf.expired());
  EXPECT_EQ(inf.RemainingUs(), UINT64_MAX);
  EXPECT_EQ(inf.CallBudgetUs(), 0u);  // 0 = "no deadline" to CallOptions

  Deadline soon = Deadline::After(60 * 1000 * 1000);  // a minute out
  EXPECT_FALSE(soon.infinite());
  EXPECT_FALSE(soon.expired());
  EXPECT_GT(soon.RemainingUs(), 0u);
  EXPECT_LE(soon.RemainingUs(), 60u * 1000 * 1000);
  // Each accessor reads the clock, so allow a tick of skew between them.
  const uint64_t budget = soon.CallBudgetUs();
  const uint64_t remaining = soon.RemainingUs();
  EXPECT_LE(budget > remaining ? budget - remaining : remaining - budget,
            1000u);

  Deadline past = Deadline::AtUs(1);  // the distant monotonic past
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.RemainingUs(), 0u);
  EXPECT_EQ(past.CallBudgetUs(), 1u);  // smallest still-enforcing budget

  // A huge budget saturates instead of wrapping into the past.
  EXPECT_FALSE(Deadline::After(UINT64_MAX - 5).expired());
}

TEST(DeadlineTest, WireRoundTripAndMalformedFields) {
  Deadline d = Deadline::AtUs(123456789);
  std::vector<std::pair<std::string, std::string>> fields = {{"term", "x"}};
  AppendDeadline(d, &fields);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1].first, std::string(kDeadlineUsKey));
  Deadline parsed = DeadlineFromRequest(EncodeMessage(fields));
  EXPECT_EQ(parsed.expires_at_us(), d.expires_at_us());

  // Infinite deadlines leave the request untouched (byte-compat with
  // undeadlined traffic).
  std::vector<std::pair<std::string, std::string>> bare = {{"term", "x"}};
  AppendDeadline(Deadline::Infinite(), &bare);
  EXPECT_EQ(bare.size(), 1u);
  EXPECT_TRUE(DeadlineFromRequest(EncodeMessage(bare)).infinite());

  // A garbled stamp must not spuriously kill the call.
  EXPECT_TRUE(DeadlineFromRequest(
                  EncodeMessage({{kDeadlineUsKey, "not-a-number"}}))
                  .infinite());
  EXPECT_TRUE(DeadlineFromRequest(EncodeMessage({{kDeadlineUsKey, "12x"}}))
                  .infinite());
}

// --- Bus deadline gates ------------------------------------------------------

TEST(BusDeadlineTest, ExpiredDeadlineIsRejectedBeforeTheHandlerRuns) {
  VinciBus bus;
  obs::MetricsRegistry metrics;
  bus.AttachMetrics(&metrics);
  std::atomic<int> handler_runs{0};
  WF_CHECK_OK(bus.RegisterService("svc/echo", [&](const std::string&) {
    ++handler_runs;
    return std::string("ok=1");
  }));

  std::vector<std::pair<std::string, std::string>> fields = {{"q", "x"}};
  AppendDeadline(Deadline::AtUs(1), &fields);  // expired long ago
  auto response = bus.Call("svc/echo", EncodeMessage(fields));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(handler_runs.load(), 0);

  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("vinci/deadline_rejected_total"), 1u);
  EXPECT_EQ(snap.CounterValue("vinci/deadline_rejected/svc/echo"), 1u);
  // The tripwire that proves the invariant: a handler never runs past its
  // deadline. Structurally zero while the gates stand.
  EXPECT_EQ(snap.CounterValue("vinci/deadline_expired_handler_runs_total"),
            0u);

  // Without the field the same call goes straight through.
  auto plain = bus.Call("svc/echo", EncodeMessage({{"q", "x"}}));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(handler_runs.load(), 1);
}

TEST(BusDeadlineTest, DeadlineExpiringInFlightGatesBeforeTheHandler) {
  VinciBus bus;
  obs::MetricsRegistry metrics;
  bus.AttachMetrics(&metrics);
  std::atomic<int> handler_runs{0};
  WF_CHECK_OK(bus.RegisterService("svc/slow", [&](const std::string&) {
    ++handler_runs;
    return std::string("ok=1");
  }));
  // The simulated round trip outlasts the budget: the entry gate passes,
  // the post-latency gate must catch it.
  bus.SetSimulatedLatency(20000);

  std::vector<std::pair<std::string, std::string>> fields = {{"q", "x"}};
  AppendDeadline(Deadline::After(2000), &fields);
  auto response = bus.Call("svc/slow", EncodeMessage(fields));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(handler_runs.load(), 0);
  EXPECT_EQ(metrics.Snapshot().CounterValue(
                "vinci/deadline_expired_handler_runs_total"),
            0u);
}

TEST(ClusterDeadlineTest, ExpiredDeadlineFailsEveryShardWithoutScattering) {
  Cluster cluster(4);
  SearchResult result = cluster.Search("anything", Deadline::AtUs(1));
  EXPECT_EQ(result.nodes_total, 4u);
  EXPECT_EQ(result.nodes_responded, 0u);
  EXPECT_EQ(result.failed_services.size(), 4u);
  EXPECT_FALSE(result.complete());
  obs::MetricsSnapshot snap = cluster.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("cluster/deadline_expired_searches_total"), 1u);
  EXPECT_EQ(snap.CounterValue("cluster/partial_searches_total"), 1u);
  // Nothing was dispatched: zero downstream work for a dead-on-arrival
  // budget.
  EXPECT_EQ(cluster.bus().CallCount("node/0/search"), 0u);
  EXPECT_EQ(snap.CounterValue("vinci/calls/node/0/search"), 0u);

  // An infinite deadline is the plain overload, byte-for-byte.
  SearchResult open = cluster.Search("anything");
  EXPECT_EQ(open.nodes_responded, 4u);
  EXPECT_TRUE(open.complete());
}

// --- Slow-node (gray failure) fault policy -----------------------------------

TEST(SlowNodeTest, LatencyRampIsDeterministicAndCapped) {
  FaultInjector a(11), b(11);
  a.SetPolicy("node/2/", SlowNodePolicy(100, 50, 300));
  b.SetPolicy("node/2/", SlowNodePolicy(100, 50, 300));

  std::vector<uint64_t> expected = {100, 150, 200, 250, 300, 300, 300};
  for (uint64_t want : expected) {
    FaultInjector::Decision da = a.Decide("node/2/search");
    FaultInjector::Decision db = b.Decide("node/2/search");
    EXPECT_EQ(da.action, FaultInjector::Decision::Action::kDeliver);
    EXPECT_EQ(da.extra_latency_us, want);
    EXPECT_EQ(db.extra_latency_us, want);  // same seed, same degradation
  }
  // Other services under the same injector are unaffected.
  EXPECT_EQ(a.Decide("node/0/search").extra_latency_us, 0u);
}

TEST(SlowNodeTest, JitterRidesOnTopOfTheRamp) {
  FaultInjector injector(5);
  injector.SetPolicy("node/1/", SlowNodePolicy(1000, 100, 2000, 50));
  for (int i = 0; i < 20; ++i) {
    uint64_t base = std::min<uint64_t>(1000 + 100 * static_cast<uint64_t>(i),
                                       2000);
    uint64_t got = injector.Decide("node/1/fetch").extra_latency_us;
    EXPECT_GE(got, base);
    EXPECT_LE(got, base + 50);
  }
}

// --- Front-door fixtures -----------------------------------------------------

// Two-subject corpus: Kodak documents and Xerox documents are disjoint, so
// cache-invalidation exactness is observable (invalidating Kodak must not
// evict the Xerox answer).
void BuildServingCluster(Cluster* cluster,
                         const lexicon::SentimentLexicon* lexicon,
                         const lexicon::PatternDatabase* patterns) {
  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 8; ++i) {
    docs.emplace_back(
        "k-" + std::to_string(i),
        i % 2 == 0 ? "Kodak impresses everyone who tried it."
                   : "Lawsuits plague Kodak.");
  }
  for (int i = 0; i < 4; ++i) {
    docs.emplace_back(
        "x-" + std::to_string(i),
        i % 2 == 0 ? "Xerox impresses the whole industry."
                   : "Lawsuits plague Xerox.");
  }
  BatchIngestor ingestor("serving", docs);
  ASSERT_EQ(IngestAll(ingestor, *cluster), docs.size());
  cluster->DeployMiner([lexicon, patterns] {
    return std::make_unique<platform::AdHocSentimentMinerPlugin>(lexicon,
                                                                 patterns);
  });
  cluster->MineAndIndexAll();
}

struct ServingHarness {
  lexicon::SentimentLexicon lexicon = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  Cluster cluster{4};
  SentimentQueryService service{&cluster};
  std::unique_ptr<FrontDoor> door;

  explicit ServingHarness(FrontDoorOptions options = {}) {
    BuildServingCluster(&cluster, &lexicon, &patterns);
    door = std::make_unique<FrontDoor>(&service, &cluster, options);
    door->AttachMetrics(&cluster.metrics());
  }

  uint64_t Metric(const std::string& name) const {
    return cluster.metrics().Snapshot().CounterValue(name);
  }
};

// --- Quotas ------------------------------------------------------------------

TEST(FrontDoorQuotaTest, TokenBucketShedsWithHonestRetryAfter) {
  FrontDoorOptions options;
  options.default_quota = {/*tokens_per_second=*/0.1, /*burst=*/2.0};
  ServingHarness h(options);

  QueryRequest request;
  request.subject = "Kodak";
  request.tenant = "acme";
  EXPECT_TRUE(h.door->Query(request).status.ok());  // burst token 1
  EXPECT_TRUE(h.door->Query(request).status.ok());  // burst token 2

  QueryReply shed = h.door->Query(request);  // bucket empty
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.shed_reason, ShedReason::kQuotaExceeded);
  EXPECT_GT(shed.retry_after_us, 0u);  // when the next token lands
  EXPECT_EQ(h.Metric("serve/shed_quota_total"), 1u);

  // Quotas are per tenant: another tenant's bucket is untouched.
  request.tenant = "globex";
  EXPECT_TRUE(h.door->Query(request).status.ok());

  // An explicit override can lift the default entirely (rate 0 = no quota).
  h.door->SetTenantQuota("acme", {/*tokens_per_second=*/0.0, /*burst=*/1.0});
  request.tenant = "acme";
  EXPECT_TRUE(h.door->Query(request).status.ok());
}

// --- Admission & shedding ----------------------------------------------------

TEST(FrontDoorAdmissionTest, ShedsImmediatelyWhenTheQueueIsFull) {
  FrontDoorOptions options;
  options.max_concurrent = 1;
  options.interactive_queue_limit = 0;  // no waiting room at all
  options.batch_queue_limit = 0;
  options.default_budget_us = 2 * 1000 * 1000;
  ServingHarness h(options);
  // Make the in-flight query slow enough to be observably in flight.
  h.cluster.bus().SetSimulatedLatency(30000);

  std::thread occupant([&] {
    QueryRequest request;
    request.subject = "Kodak";
    QueryReply reply = h.door->Query(request);
    EXPECT_TRUE(reply.status.ok());
  });
  // Wait until the occupant holds the execution slot.
  while (h.cluster.metrics().Snapshot().GaugeValue("serve/inflight") < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  QueryRequest request;
  request.subject = "Xerox";  // different key: no coalescing escape hatch
  QueryReply shed = h.door->Query(request);
  occupant.join();

  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.shed_reason, ShedReason::kQueueFull);
  EXPECT_EQ(shed.retry_after_us, options.shed_retry_after_us);
  EXPECT_GE(h.Metric("serve/shed_queue_full_total"), 1u);
  // The shed never reached the cluster: only the occupant's searches ran.
  EXPECT_EQ(h.Metric("cluster/searches_total"), 2u);
}

// --- Coalescing --------------------------------------------------------------

// Property: N concurrent identical queries cost exactly one upstream
// execution (two scatters: positive + negative), and every caller receives
// byte-identical payload — whether it coalesced onto the leader's flight
// or hit the result cache the leader filled.
TEST(FrontDoorCoalescingTest, ConcurrentIdenticalQueriesExecuteOnce) {
  ServingHarness h;
  h.cluster.bus().SetSimulatedLatency(5000);  // widen the overlap window

  const uint64_t searches_before = h.Metric("cluster/searches_total");
  constexpr int kCallers = 8;
  std::vector<QueryReply> replies(kCallers);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&h, &replies, &go, i] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      QueryRequest request;
      request.subject = "Kodak";
      request.budget_us = 5 * 1000 * 1000;
      replies[static_cast<size_t>(i)] = h.door->Query(request);
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  // Exactly one execution: the two scatters of the leader, nothing else.
  EXPECT_EQ(h.Metric("cluster/searches_total") - searches_before, 2u);
  std::set<std::string> payloads;
  for (const QueryReply& reply : replies) {
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    payloads.insert(reply.payload);
  }
  EXPECT_EQ(payloads.size(), 1u);  // byte-identical across all callers
  // Everyone but the leader either coalesced or hit the cache.
  EXPECT_EQ(h.Metric("serve/coalesced_total") +
                h.Metric("serve/cache_hits_total"),
            static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(h.Metric("serve/requests_total"),
            static_cast<uint64_t>(kCallers));
}

// --- Result cache ------------------------------------------------------------

TEST(FrontDoorCacheTest, InvalidationIsExactToTheNamedSubjects) {
  ServingHarness h;
  QueryRequest kodak_request;
  kodak_request.subject = "Kodak";
  QueryRequest xerox_request;
  xerox_request.subject = "Xerox";

  EXPECT_FALSE(h.door->Query(kodak_request).cache_hit);  // fill
  EXPECT_FALSE(h.door->Query(xerox_request).cache_hit);
  EXPECT_TRUE(h.door->Query(kodak_request).cache_hit);  // cached now
  EXPECT_TRUE(h.door->Query(xerox_request).cache_hit);

  // Invalidating a subject drops exactly its entry, matched through the
  // index's normalization: "KODAK" names the cached "Kodak" answer, and
  // the Xerox answer stays cached.
  h.door->InvalidateSubjects({"KODAK"});
  EXPECT_EQ(h.Metric("serve/cache_invalidated_total"), 1u);
  EXPECT_FALSE(h.door->Query(kodak_request).cache_hit);
  EXPECT_TRUE(h.door->Query(xerox_request).cache_hit);

  // A subject no cached answer names invalidates nothing.
  h.door->InvalidateSubjects({"Polaroid"});
  EXPECT_EQ(h.Metric("serve/cache_invalidated_total"), 1u);
  EXPECT_TRUE(h.door->Query(kodak_request).cache_hit);

  // The blunt hook: a full re-mine clears everything.
  h.door->InvalidateAll();
  EXPECT_FALSE(h.door->Query(kodak_request).cache_hit);
  EXPECT_FALSE(h.door->Query(xerox_request).cache_hit);
}

// A re-mine that adds a matching document must not leave a cached answer
// stale, neither one whose subject already had hits (Kodak) nor one that
// had none (Polaroid). The new documents are in no cached answer's read
// set, and a no-hit answer read no document at all, so only invalidation
// by subject reaches both entries.
TEST(FrontDoorCacheTest, RemineInvalidatesNewlyMatchingSubjects) {
  ServingHarness h;
  auto ask = [&h](const std::string& subject) {
    QueryRequest request;
    request.subject = subject;
    return h.door->Query(request);
  };
  auto positive_docs = [](const QueryReply& reply) {
    return platform::GetMessageField(reply.payload, "positive_docs");
  };
  EXPECT_EQ(positive_docs(ask("Kodak")), "4");
  EXPECT_EQ(positive_docs(ask("Polaroid")), "0");
  EXPECT_FALSE(ask("Xerox").cache_hit);
  EXPECT_TRUE(ask("Polaroid").cache_hit);

  BatchIngestor ingestor(
      "serving", {{"k-new", "Kodak impresses everyone who tried it."},
                  {"p-new", "Polaroid impresses everyone who tried it."}});
  ASSERT_EQ(IngestAll(ingestor, h.cluster), 2u);
  h.cluster.MineAndIndexAll();
  h.door->InvalidateSubjects({"Kodak", "Polaroid"});

  const QueryReply kodak = ask("Kodak");
  EXPECT_FALSE(kodak.cache_hit);
  EXPECT_EQ(positive_docs(kodak), "5");
  const QueryReply polaroid = ask("Polaroid");
  EXPECT_FALSE(polaroid.cache_hit);
  EXPECT_EQ(positive_docs(polaroid), "1");
  EXPECT_TRUE(ask("Xerox").cache_hit);
}

TEST(FrontDoorCacheTest, DegradedResultsAreNeverCached) {
  ServingHarness h;
  FaultInjector injector(33);
  FaultPolicy down;
  down.fail_probability = 1.0;
  injector.SetPolicy("node/0/", down);
  h.cluster.bus().AttachFaultInjector(&injector);

  QueryRequest request;
  request.subject = "Kodak";
  QueryReply degraded = h.door->Query(request);
  EXPECT_TRUE(degraded.status.ok());  // partial answers are still answers
  EXPECT_FALSE(degraded.cache_hit);

  // Heal; the next query must re-execute (the degraded answer was not
  // cached) and serve the complete one.
  h.cluster.bus().AttachFaultInjector(nullptr);
  h.cluster.bus().ResetBreakers();
  QueryReply healed = h.door->Query(request);
  EXPECT_FALSE(healed.cache_hit);
  EXPECT_NE(healed.payload, degraded.payload);
  // Now the complete answer is cached.
  EXPECT_TRUE(h.door->Query(request).cache_hit);
  EXPECT_EQ(h.door->Query(request).payload, healed.payload);
}

// --- Bus endpoint ------------------------------------------------------------

TEST(FrontDoorBusTest, ServesAndShedsThroughTheVinciEndpoint) {
  FrontDoorOptions options;
  options.default_quota = {/*tokens_per_second=*/0.1, /*burst=*/1.0};
  ServingHarness h(options);
  WF_CHECK_OK(h.door->RegisterService());

  auto served = h.cluster.bus().Call(
      "app/front_door",
      EncodeMessage({{"subject", "Kodak"},
                     {"tenant", "acme"},
                     {"budget_us", "2000000"}}));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(platform::GetMessageField(*served, "code"), "0");
  EXPECT_EQ(platform::GetMessageField(*served, "shed"), "0");
  const std::string payload = platform::GetMessageField(*served, "payload");
  EXPECT_FALSE(payload.empty());
  EXPECT_EQ(platform::GetMessageField(payload, "subject"), "Kodak");
  EXPECT_EQ(platform::GetMessageField(payload, "complete"), "1");

  // Same tenant again: the one-token bucket is empty, and the shed comes
  // back over the wire with its reason and retry hint intact.
  auto shed = h.cluster.bus().Call(
      "app/front_door",
      EncodeMessage({{"subject", "Xerox"}, {"tenant", "acme"}}));
  ASSERT_TRUE(shed.ok());  // the *endpoint* succeeded; the query was shed
  EXPECT_EQ(platform::GetMessageField(*shed, "code"),
            std::to_string(static_cast<int>(StatusCode::kUnavailable)));
  EXPECT_EQ(platform::GetMessageField(*shed, "shed"),
            std::to_string(static_cast<int>(ShedReason::kQuotaExceeded)));
  EXPECT_GT(std::stoull(platform::GetMessageField(*shed, "retry_after_us")),
            0u);
  EXPECT_TRUE(platform::GetMessageField(*shed, "payload").empty());
  EXPECT_FALSE(platform::GetMessageField(*shed, "error").empty());
}

// A budget_us the endpoint cannot read as an unsigned integer is the
// caller's error: it is refused with InvalidArgument before admission, so
// no query runs on a budget the caller did not mean ("-1" is not "no
// deadline", "abc" not the default).
TEST(FrontDoorBusTest, MalformedBudgetIsInvalidArgumentAndRunsNoQuery) {
  ServingHarness h;
  WF_CHECK_OK(h.door->RegisterService());
  for (const char* budget : {"abc", "-1", "+5", "12x"}) {
    const uint64_t requests = h.Metric("serve/requests_total");
    auto reply = h.cluster.bus().Call(
        "app/front_door",
        EncodeMessage({{"subject", "Kodak"}, {"budget_us", budget}}));
    ASSERT_TRUE(reply.ok()) << budget;
    EXPECT_EQ(platform::GetMessageField(*reply, "code"),
              std::to_string(static_cast<int>(StatusCode::kInvalidArgument)))
        << budget;
    EXPECT_TRUE(platform::GetMessageField(*reply, "payload").empty());
    EXPECT_NE(platform::GetMessageField(*reply, "error").find("budget_us"),
              std::string::npos)
        << budget;
    EXPECT_EQ(h.Metric("serve/requests_total"), requests) << budget;
  }
  // A well-formed budget still serves.
  auto served = h.cluster.bus().Call(
      "app/front_door",
      EncodeMessage({{"subject", "Kodak"}, {"budget_us", "2000000"}}));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(platform::GetMessageField(*served, "code"), "0");
}

// --- Acceptance: 10x overload with faults and a slow node --------------------

TEST(ServingAcceptanceTest, OverloadShedsHonestlyAndHealsByteIdentical) {
  FrontDoorOptions options;
  options.max_concurrent = 2;
  options.interactive_queue_limit = 3;
  options.batch_queue_limit = 1;
  options.default_budget_us = 30000;  // 30ms end-to-end per query
  ServingHarness h(options);

  const std::vector<std::string> subjects = {"Kodak", "Xerox"};

  // Unloaded same-seed baseline, straight through the front door.
  std::vector<std::string> baseline;
  for (const std::string& subject : subjects) {
    QueryRequest request;
    request.subject = subject;
    request.budget_us = 10 * 1000 * 1000;
    QueryReply reply = h.door->Query(request);
    ASSERT_TRUE(reply.status.ok());
    baseline.push_back(reply.payload);
  }
  h.door->InvalidateAll();  // overload must not serve the warm baseline

  // Chaos on: 20% failures fleet-wide, one gray-failing node whose latency
  // ramps past the whole query budget, plus a base network cost.
  FaultInjector injector(2026);
  FaultPolicy flaky;
  flaky.fail_probability = 0.2;
  injector.SetPolicy("node/", flaky);
  injector.SetPolicy("node/2/", SlowNodePolicy(2000, 2000, 60000, 500));
  h.cluster.bus().AttachFaultInjector(&injector);
  h.cluster.bus().SetSimulatedLatency(500);

  // Open loop at ~10x capacity: 12 closed-loop callers against
  // max_concurrent=2 with 4 queue slots, each firing as fast as replies
  // come back.
  constexpr int kThreads = 12;
  constexpr int kQueriesPerThread = 15;
  std::vector<std::vector<QueryReply>> replies(kThreads);
  std::vector<std::vector<uint64_t>> elapsed_us(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &subjects, &replies, &elapsed_us, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        QueryRequest request;
        // Mostly-unique subjects: coalescing and the cache are so effective
        // at absorbing repeated queries that identical traffic never fills
        // the queues — the interesting overload is the uncacheable kind.
        request.subject =
            i % 5 == 0
                ? subjects[static_cast<size_t>(i) % subjects.size()]
                : "load-" + std::to_string(t) + "-" + std::to_string(i);
        request.tenant = "tenant-" + std::to_string(t % 3);
        request.priority = t % 4 == 0 ? Priority::kBatch
                                      : Priority::kInteractive;
        const uint64_t start = obs::MonotonicNowUs();
        QueryReply reply = h.door->Query(request);
        elapsed_us[static_cast<size_t>(t)].push_back(obs::MonotonicNowUs() -
                                                     start);
        replies[static_cast<size_t>(t)].push_back(std::move(reply));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  size_t ok = 0, shed = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < replies[static_cast<size_t>(t)].size(); ++i) {
      const QueryReply& reply = replies[static_cast<size_t>(t)][i];
      // Honest outcomes only: served, refused, or timed out — never a
      // mystery error, and (checked below) never a hang.
      const StatusCode code = reply.status.code();
      EXPECT_TRUE(code == StatusCode::kOk ||
                  code == StatusCode::kUnavailable ||
                  code == StatusCode::kDeadlineExceeded)
          << reply.status.ToString();
      if (code == StatusCode::kOk) ++ok;
      if (reply.shed_reason == ShedReason::kQueueFull) {
        ++shed;
        EXPECT_GT(reply.retry_after_us, 0u);  // backpressure, not a brush-off
      }
      // "Never hangs": every reply — served or shed — returned in bounded
      // time. The bound is deliberately loose (sanitizer-friendly); the
      // bench reports the real p99.
      EXPECT_LT(elapsed_us[static_cast<size_t>(t)][i], 5u * 1000 * 1000);
    }
  }
  EXPECT_GT(ok, 0u);    // overload still yields goodput
  EXPECT_GT(shed, 0u);  // and 10x load provably shed some of it

  // The core invariant, proved from metrics: no node handler ever executed
  // after its deadline expired, no matter how overloaded the queues got.
  obs::MetricsSnapshot during = h.cluster.metrics().Snapshot();
  EXPECT_EQ(during.CounterValue("vinci/deadline_expired_handler_runs_total"),
            0u);
  EXPECT_GT(during.CounterValue("serve/requests_total"), 0u);

  // Chaos off: heal, then the same queries answer byte-identically to the
  // unloaded baseline — overload degraded service, never state.
  h.cluster.bus().AttachFaultInjector(nullptr);
  h.cluster.bus().SetSimulatedLatency(0);
  h.cluster.bus().ResetBreakers();
  h.door->InvalidateAll();
  for (size_t s = 0; s < subjects.size(); ++s) {
    QueryRequest request;
    request.subject = subjects[s];
    request.budget_us = 10 * 1000 * 1000;
    QueryReply reply = h.door->Query(request);
    ASSERT_TRUE(reply.status.ok());
    EXPECT_EQ(reply.payload, baseline[s]) << subjects[s];
  }
}

// --- Hedged scatter: byte-identity property ---------------------------------

// Property: with hedging on, every answer is byte-identical to the unhedged
// answer — across injector seeds and caller thread counts. The gray node
// here is slow (20ms) but well inside the 2s budget, so both paths must
// keep its shard; hedges may only add redundant work, never change bytes.
TEST(HedgingPropertyTest, AnswersAreByteIdenticalAcrossSeedsAndThreads) {
  FrontDoorOptions options;
  options.max_concurrent = 8;
  options.cache_entries = 0;  // every query really executes
  options.default_budget_us = 2 * 1000 * 1000;
  ServingHarness h(options);
  h.cluster.bus().SetSimulatedLatency(300);

  const std::vector<std::string> subjects = {"Kodak", "Xerox"};
  auto slow_node = [] {
    return SlowNodePolicy(/*base=*/20000, /*ramp=*/0, /*cap=*/20000,
                          /*jitter=*/500);
  };

  // Unhedged baseline under the same slow-node policy the hedged runs see.
  FaultInjector baseline_injector(7);
  baseline_injector.SetPolicy("node/2/", slow_node());
  h.cluster.bus().AttachFaultInjector(&baseline_injector);
  std::map<std::string, std::string> baseline;
  for (const std::string& subject : subjects) {
    QueryRequest request;
    request.subject = subject;
    QueryReply reply = h.door->Query(request);
    ASSERT_TRUE(reply.status.ok());
    baseline[subject] = reply.payload;
  }
  h.cluster.bus().AttachFaultInjector(nullptr);  // quiesces stragglers

  platform::HedgeOptions hedge;
  hedge.default_delay_us = 2000;
  hedge.min_delay_us = 500;
  h.cluster.EnableHedging(hedge);

  for (uint64_t seed : {11u, 29u}) {
    for (int threads : {1, 4}) {
      FaultInjector injector(seed);
      injector.SetPolicy("node/2/", slow_node());
      h.cluster.bus().AttachFaultInjector(&injector);
      h.door->InvalidateAll();

      std::vector<std::vector<QueryReply>> replies(
          static_cast<size_t>(threads));
      std::vector<std::thread> workers;
      workers.reserve(static_cast<size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&h, &subjects, &replies, t] {
          for (const std::string& subject : subjects) {
            QueryRequest request;
            request.subject = subject;
            replies[static_cast<size_t>(t)].push_back(h.door->Query(request));
          }
        });
      }
      for (std::thread& w : workers) w.join();
      for (int t = 0; t < threads; ++t) {
        for (size_t i = 0; i < subjects.size(); ++i) {
          const QueryReply& reply = replies[static_cast<size_t>(t)][i];
          ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
          EXPECT_EQ(reply.payload, baseline[subjects[i]])
              << "seed=" << seed << " threads=" << threads << " "
              << subjects[i];
        }
      }
      h.cluster.bus().AttachFaultInjector(nullptr);
      h.cluster.bus().ResetBreakers();
    }
  }

  obs::MetricsSnapshot snap = h.cluster.metrics().Snapshot();
  EXPECT_GT(snap.CounterValue("vinci/hedges_total"), 0u);
  // The tripwire: hedging must never let a handler run past its deadline.
  EXPECT_EQ(snap.CounterValue("vinci/deadline_expired_handler_runs_total"),
            0u);
}

// --- Hedged scatter: breaker & retry neutrality ------------------------------

// A hedge attempt must neither feed the breaker's failure streak nor count
// as a retry. Every node/1 call sleeps 10ms and then corrupts, so each
// scatter contributes exactly one breaker-visible failure per node/1
// service (the primary) while the hedge — issued at ~1ms, failing at
// ~11ms — is breaker-silent. With the default failure_threshold of 5, four
// scatters must leave the circuit closed (a double-feeding hedge would
// have opened it during the third) and the fifth must open it.
TEST(HedgingBreakerTest, HedgesNeverDoubleCountBreakerOrRetries) {
  Cluster cluster(4);
  platform::HedgeOptions hedge;
  hedge.default_delay_us = 1000;
  hedge.min_delay_us = 200;
  hedge.max_delay_us = 4000;
  cluster.EnableHedging(hedge);

  FaultInjector injector(3);
  FaultPolicy corrupt;
  corrupt.corrupt_probability = 1.0;  // fails *after* the latency sleep
  corrupt.added_latency_us = 10000;
  injector.SetPolicy("node/1/", corrupt);
  cluster.bus().AttachFaultInjector(&injector);

  for (int i = 0; i < 4; ++i) {
    cluster.Search("anything", Deadline::After(500000));
  }
  EXPECT_EQ(cluster.bus().breaker_state("node/1/search"),
            platform::BreakerState::kClosed);
  obs::MetricsSnapshot mid = cluster.metrics().Snapshot();
  EXPECT_EQ(mid.CounterValue("vinci/breaker/open_total"), 0u);
  EXPECT_GT(mid.CounterValue("vinci/hedges_total"), 0u);

  cluster.Search("anything", Deadline::After(500000));
  EXPECT_EQ(cluster.bus().breaker_state("node/1/search"),
            platform::BreakerState::kOpen);
  obs::MetricsSnapshot after = cluster.metrics().Snapshot();
  // Exactly the unhedged sequence: each node/1 service (search, stats,
  // fetch — a search scatters to all of them) opened once, on its fifth
  // primary failure.
  EXPECT_EQ(after.CounterValue("vinci/breaker/open_total"), 3u);
  // And hedges are not retries: the scatter path never retries (its
  // per-call deadline does the failing), so every retry counter stays 0.
  for (const auto& [name, value] : after.counters) {
    if (name.rfind("vinci/retry_total/", 0) == 0) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
  EXPECT_EQ(after.CounterValue("vinci/deadline_expired_handler_runs_total"),
            0u);
  cluster.bus().AttachFaultInjector(nullptr);
}

// --- Hedged scatter: wins are counted ----------------------------------------

// One node answers slowly and corrupts half its replies; every corrupted
// primary leaves its slot open for the hedge — a fresh coin flip — to
// resolve. The win counter must move, and the tripwire must not. Each
// round scatters on a fresh cluster: node/1's slow services would turn
// suspect after a few rounds on one cluster, and a suspect is never
// hedged. One injector serves every round, so its fault sequence runs on.
TEST(HedgingWinTest, HedgeWinsAreCountedAndTripwireStaysZero) {
  platform::HedgeOptions hedge;
  hedge.default_delay_us = 1500;
  hedge.min_delay_us = 500;
  hedge.max_delay_us = 2500;  // always below the primary's injected sleep,
                              // so the hedge fires while it is in flight
  FaultInjector injector(13);
  FaultPolicy flaky_slow;
  flaky_slow.corrupt_probability = 0.5;  // fails *after* the latency sleep
  flaky_slow.added_latency_us = 2000;
  flaky_slow.latency_jitter_us = 8000;
  injector.SetPolicy("node/1/", flaky_slow);

  uint64_t hedges = 0;
  uint64_t wins = 0;
  uint64_t late_handler_runs = 0;
  for (int i = 0; i < 20; ++i) {
    Cluster cluster(4);
    cluster.EnableHedging(hedge);
    cluster.bus().AttachFaultInjector(&injector);
    cluster.Search("anything", Deadline::After(200000));
    obs::MetricsSnapshot snap = cluster.metrics().Snapshot();
    hedges += snap.CounterValue("vinci/hedges_total");
    wins += snap.CounterValue("vinci/hedge_wins_total");
    late_handler_runs +=
        snap.CounterValue("vinci/deadline_expired_handler_runs_total");
  }
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(wins, 0u);
  EXPECT_EQ(late_handler_runs, 0u);
}

// --- Hedged scatter: teardown against the sick lane ---------------------------

// A suspect target's primary runs on a detached sick-lane thread that
// Shutdown does not join; Shutdown only waits for the bus's in-flight
// dispatch count to reach zero. Destroying the bus around the moment such
// an abandoned primary returns must be safe: the last dispatch guard out
// notifies under the bus's lock and touches the bus no more after its
// unlock. The unsafe window is a few instructions wide, so this asserts
// teardown safety only; the sanitizer builds report a breach.
TEST(HedgingLifetimeTest, DestroyingTheBusAsASickLanePrimaryFinishes) {
  constexpr uint64_t kDeadlineUs = 50000;
  for (int round = 0; round < 20; ++round) {
    platform::HealthScoreboard health;
    auto bus = std::make_unique<VinciBus>();
    for (int i = 0; i < 4; ++i) {
      const std::string name = "node/" + std::to_string(i) + "/search";
      const bool sick = i == 3;
      WF_CHECK_OK(bus->RegisterService(name, [sick](const std::string&) {
        if (sick) std::this_thread::sleep_for(std::chrono::milliseconds(3));
        return std::string("ok=1");
      }));
      // node/3 is suspect, with a latency EWMA already past the deadline,
      // so the gather abandons it early and its primary finishes detached.
      for (int sample = 0; sample < 16; ++sample) {
        health.RecordCall(name, sick ? 4 * kDeadlineUs : 100, true);
      }
    }
    ASSERT_TRUE(health.Suspect("node/3/search"));
    bus->AttachHealth(&health);

    platform::HedgeOptions hedge;
    hedge.enabled = true;
    CallOptions options;
    options.deadline_us = kDeadlineUs;
    const auto replies = bus->CallAll("node/", "q=x", options, hedge);
    ASSERT_EQ(replies.size(), 4u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(replies[i].second.ok()) << replies[i].first;
    }
    // Stagger teardown across the sick primary's round trip, so some rounds
    // destroy the bus just as the sick-lane thread leaves its dispatch.
    std::this_thread::sleep_for(std::chrono::microseconds(150 * round));
    bus.reset();
  }
}

// --- AIMD adaptive concurrency -----------------------------------------------

TEST(FrontDoorAimdTest, LimitConvergesUnderOverloadAndRecovers) {
  FrontDoorOptions options;
  options.max_concurrent = 6;
  options.aimd.enabled = true;
  options.aimd.target_p99_us = 150000;
  options.aimd.window = 2;
  options.aimd.min_limit = 1;
  options.cache_entries = 0;  // unique work per query: every one samples
  options.default_budget_us = 2 * 1000 * 1000;
  ServingHarness h(options);

  // Overload: every scatter call costs 100ms simulated network. A query
  // runs two scatters back to back and each waits at least one round trip,
  // so every end-to-end time is at least 200ms, past the 150ms target
  // however wide the scatter pool is. (At 10ms the six queries finished
  // between ~100ms and ~170ms on a 4-vCPU host, straddling the target, and
  // a window could increase the limit.) Each completion window must cut
  // the limit multiplicatively until it hits the floor.
  h.cluster.bus().SetSimulatedLatency(100000);
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&h, t] {
      QueryRequest request;
      request.subject = "over-" + std::to_string(t);
      h.door->Query(request);
    });
  }
  for (std::thread& t : callers) t.join();
  obs::MetricsSnapshot overload = h.cluster.metrics().Snapshot();
  EXPECT_EQ(overload.GaugeValue("serve/concurrency_limit"), 1);
  EXPECT_GE(overload.CounterValue("serve/aimd_decrease_total"), 2u);

  // Recovery: fast backend again; additive increase must walk the limit
  // back up within a few windows.
  h.cluster.bus().SetSimulatedLatency(0);
  for (int i = 0; i < 10; ++i) {
    QueryRequest request;
    request.subject = "rec-" + std::to_string(i);
    QueryReply reply = h.door->Query(request);
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
  }
  obs::MetricsSnapshot recovered = h.cluster.metrics().Snapshot();
  EXPECT_GE(recovered.GaugeValue("serve/concurrency_limit"), 2);
  EXPECT_GT(recovered.CounterValue("serve/aimd_increase_total"), 0u);
}

// --- Queue-full retry-after: drain-time estimate -----------------------------

TEST(FrontDoorAdmissionTest, RetryAfterReflectsDrainTimeOnceWarm) {
  FrontDoorOptions options;
  options.max_concurrent = 1;
  options.interactive_queue_limit = 0;
  options.batch_queue_limit = 0;
  options.shed_retry_after_us = 777;  // recognizable cold-door constant
  options.default_budget_us = 2 * 1000 * 1000;
  ServingHarness h(options);
  h.cluster.bus().SetSimulatedLatency(20000);

  auto occupy_and_shed = [&h](const std::string& occupant_subject,
                              const std::string& shed_subject) {
    std::thread occupant([&h, occupant_subject] {
      QueryRequest request;
      request.subject = occupant_subject;
      EXPECT_TRUE(h.door->Query(request).status.ok());
    });
    while (h.cluster.metrics().Snapshot().GaugeValue("serve/inflight") < 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    QueryRequest request;
    request.subject = shed_subject;
    QueryReply shed = h.door->Query(request);
    occupant.join();
    return shed;
  };

  // Cold door (no completion history): the configured constant.
  QueryReply cold = occupy_and_shed("Kodak", "Xerox");
  ASSERT_EQ(cold.shed_reason, ShedReason::kQueueFull);
  EXPECT_EQ(cold.retry_after_us, 777u);

  // Warm door: the hint is now a drain-time estimate from the observed
  // service time (tens of milliseconds here), not the constant.
  QueryReply warm = occupy_and_shed("Alpha", "Beta");
  ASSERT_EQ(warm.shed_reason, ShedReason::kQueueFull);
  EXPECT_NE(warm.retry_after_us, 777u);
  EXPECT_GE(warm.retry_after_us, 5000u);
  EXPECT_LE(warm.retry_after_us, 5u * 1000 * 1000);
}

// --- Acceptance: tail tolerance under a ramping slow node --------------------

// Extends the overload acceptance: with hedging enabled and 20% faults, a
// node whose latency ramps past the whole scatter deadline must not drag
// the scatter p99 beyond 2x the no-slow-node baseline, at no more than 15%
// extra calls; AIMD visibly converges and recovers; and once the chaos
// clears, answers are byte-identical to the unhedged pre-chaos baseline.
TEST(TailToleranceAcceptanceTest, SlowNodeRampStaysWithinTailBudget) {
  FrontDoorOptions options;
  options.max_concurrent = 4;
  options.aimd.enabled = true;
  options.aimd.target_p99_us = 150000;
  options.aimd.window = 2;
  options.aimd.min_limit = 1;
  options.cache_entries = 0;
  options.default_budget_us = 2 * 1000 * 1000;
  ServingHarness h(options);

  const std::vector<std::string> subjects = {"Kodak", "Xerox"};

  // Unhedged, unloaded baseline answers.
  std::vector<std::string> baseline;
  for (const std::string& subject : subjects) {
    QueryRequest request;
    request.subject = subject;
    QueryReply reply = h.door->Query(request);
    ASSERT_TRUE(reply.status.ok());
    baseline.push_back(reply.payload);
  }

  platform::HedgeOptions hedge;
  hedge.default_delay_us = 4000;
  hedge.min_delay_us = 4000;  // above the healthy round trip: hedges are
                              // for stragglers, not steady-state traffic
  hedge.max_delay_us = 20000;
  hedge.suspect_margin_factor = 2.0;
  hedge.suspect_min_margin_us = 2000;
  h.cluster.EnableHedging(hedge);
  h.cluster.bus().SetSimulatedLatency(1500);

  FaultInjector injector(77);
  FaultPolicy flaky;
  flaky.fail_probability = 0.2;
  injector.SetPolicy("node/", flaky);
  h.cluster.bus().AttachFaultInjector(&injector);

  constexpr uint64_t kScatterDeadlineUs = 30000;
  constexpr int kWarmup = 16;
  constexpr int kMeasured = 50;
  auto measure = [&h](int scatters) {
    std::vector<uint64_t> wall_us;
    wall_us.reserve(static_cast<size_t>(scatters));
    for (int i = 0; i < scatters; ++i) {
      const uint64_t start = obs::MonotonicNowUs();
      h.cluster.Search("Kodak", Deadline::After(kScatterDeadlineUs));
      wall_us.push_back(obs::MonotonicNowUs() - start);
    }
    std::sort(wall_us.begin(), wall_us.end());
    return wall_us[static_cast<size_t>(scatters) * 99 / 100];
  };
  auto node_calls = [&h] {
    uint64_t total = 0;
    obs::MetricsSnapshot snap = h.cluster.metrics().Snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("vinci/calls/node/", 0) == 0) total += value;
    }
    return total;
  };

  // Phase A: faults only. Warm the scoreboard, then measure the baseline
  // scatter tail.
  measure(kWarmup);
  const uint64_t calls_a = node_calls();
  const uint64_t hedges_a =
      h.Metric("vinci/hedges_total");
  const uint64_t p99_base = measure(kMeasured);

  // Phase B: one node ramps to 60ms — twice the whole scatter deadline.
  // The warmup drives it to suspect with a latency EWMA past the deadline,
  // after which the gather abandons it at a fleet-derived margin instead
  // of riding every scatter to the deadline.
  injector.SetPolicy("node/2/", SlowNodePolicy(2000, 2000, 60000, 500));
  measure(kWarmup);
  const uint64_t p99_slow = measure(kMeasured);
  const uint64_t calls_b = node_calls();
  const uint64_t hedges_b = h.Metric("vinci/hedges_total");

  EXPECT_LE(p99_slow, 2 * p99_base)
      << "p99_base=" << p99_base << " p99_slow=" << p99_slow;
  // Hedging overhead across both measured+warmup windows: at most 15%
  // extra calls on top of the primaries.
  const uint64_t hedges = hedges_b - hedges_a;
  const uint64_t primaries = (calls_b - calls_a) - hedges;
  EXPECT_LE(hedges * 100, primaries * 15)
      << "hedges=" << hedges << " primaries=" << primaries;

  // AIMD converges under overload...
  h.cluster.bus().AttachFaultInjector(nullptr);  // quiesce chaos
  h.cluster.bus().SetSimulatedLatency(10000);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&h, t] {
      for (int i = 0; i < 2; ++i) {
        QueryRequest request;
        request.subject =
            "over-" + std::to_string(t) + "-" + std::to_string(i);
        h.door->Query(request);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  obs::MetricsSnapshot overload = h.cluster.metrics().Snapshot();
  EXPECT_LT(overload.GaugeValue("serve/concurrency_limit"),
            static_cast<int64_t>(options.max_concurrent));
  EXPECT_GT(overload.CounterValue("serve/aimd_decrease_total"), 0u);

  // ...and recovers once the backend is fast again.
  h.cluster.bus().SetSimulatedLatency(0);
  for (int i = 0; i < 10; ++i) {
    QueryRequest request;
    request.subject = "rec-" + std::to_string(i);
    EXPECT_TRUE(h.door->Query(request).status.ok());
  }
  obs::MetricsSnapshot recovered = h.cluster.metrics().Snapshot();
  EXPECT_GE(recovered.GaugeValue("serve/concurrency_limit"), 2);
  EXPECT_GT(recovered.CounterValue("serve/aimd_increase_total"), 0u);

  // The tripwire held through faults, the ramp, and the overload.
  EXPECT_EQ(recovered.CounterValue(
                "vinci/deadline_expired_handler_runs_total"),
            0u);

  // Healed — with hedging still enabled — the answers are byte-identical
  // to the unhedged pre-chaos baseline.
  h.cluster.bus().ResetBreakers();
  h.door->InvalidateAll();
  for (size_t s = 0; s < subjects.size(); ++s) {
    QueryRequest request;
    request.subject = subjects[s];
    QueryReply reply = h.door->Query(request);
    ASSERT_TRUE(reply.status.ok());
    EXPECT_EQ(reply.payload, baseline[s]) << subjects[s];
  }
}

}  // namespace
}  // namespace wf::serve
