// SentimentQueryService's fetch phase against a reference walk kept here:
// one node/<i>/fetch call per document, in id order, keeping each
// document's matching sentiment spans until the polarity's share of
// max_hits is full. The service must return the same answer while sending
// each node at most one multi-id fetch per round.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "corpus/domain.h"
#include "corpus/web_gen.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "platform/deadline.h"
#include "platform/entity.h"
#include "platform/fault.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"
#include "platform/vinci.h"

namespace wf::platform {
namespace {

using ::wf::lexicon::Polarity;

// 300 seeded petroleum and pharma web pages, plus a few pages that praise
// and blame one subject twice each (so a single doc can fill a walk part
// way through its spans), mined with the Mode-B plugin on a fresh cluster
// of `nodes` nodes.
std::unique_ptr<Cluster> MinedWebCluster(size_t nodes) {
  static const auto* const lexicon =
      new lexicon::SentimentLexicon(lexicon::SentimentLexicon::Embedded());
  static const auto* const patterns =
      new lexicon::PatternDatabase(lexicon::PatternDatabase::Embedded());
  auto cluster = std::make_unique<Cluster>(nodes);
  for (const corpus::DomainVocab* domain :
       {&corpus::PetroleumDomain(), &corpus::PharmaDomain()}) {
    for (const corpus::GeneratedDoc& d : corpus::GenerateWebDocs(
             *domain, 150, 2711, corpus::WebGenOptions{})) {
      Entity e(d.id, "crawl");
      e.SetBody(d.body);
      EXPECT_TRUE(cluster->Ingest(std::move(e)).ok()) << d.id;
    }
  }
  for (int i = 0; i < 8; ++i) {
    Entity e(common::StrFormat("twice-%d", i), "crawl");
    e.SetBody(
        "Kodak impresses everyone who tried it. Lawsuits plague Kodak. "
        "Kodak impresses the critics. Lawsuits plague Kodak again.");
    EXPECT_TRUE(cluster->Ingest(std::move(e)).ok());
  }
  cluster->DeployMiner([] {
    return std::make_unique<AdHocSentimentMinerPlugin>(lexicon, patterns);
  });
  cluster->MineAndIndexAll();
  return cluster;
}

// The reference walk over one polarity's docs, in id order: per document
// one node/<i>/fetch call with two retries; a failed call counts and is
// skipped, a missing or undecodable entity is skipped.
std::vector<SentimentHit> ReferenceWalk(Cluster& cluster,
                                        const std::string& subject,
                                        Polarity polarity,
                                        const std::vector<std::string>& docs,
                                        size_t limit, size_t* failures) {
  CallOptions options;
  options.max_retries = 2;
  options.initial_backoff_us = 50;
  options.max_backoff_us = 1000;
  const char* want = polarity == Polarity::kPositive ? "+" : "-";
  std::vector<SentimentHit> hits;
  for (const std::string& doc : docs) {
    if (hits.size() >= limit) break;
    auto response = cluster.bus().Call(
        common::StrFormat("node/%zu/fetch", cluster.Route(doc)),
        EncodeMessage({{"id", doc}}), options);
    if (!response.ok()) {
      ++*failures;
      continue;
    }
    std::string record = GetMessageField(*response, "entity");
    if (record.empty()) continue;
    auto entity = Entity::DecodeRecord(record);
    if (!entity.ok()) continue;
    const auto* spans = entity->GetAnnotations("sentiment");
    if (spans == nullptr) continue;
    for (const AnnotationSpan& span : *spans) {
      if (hits.size() >= limit) break;
      auto subj = span.attrs.find("subject");
      auto pol = span.attrs.find("polarity");
      if (subj == span.attrs.end() || pol == span.attrs.end()) continue;
      if (!common::EqualsIgnoreCase(subj->second, subject)) continue;
      if (pol->second != want) continue;
      SentimentHit hit;
      hit.doc_id = doc;
      hit.subject = subj->second;
      hit.polarity = polarity;
      auto sent = span.attrs.find("sentence");
      if (sent != span.attrs.end()) hit.sentence = sent->second;
      auto pat = span.attrs.find("pattern");
      if (pat != span.attrs.end()) hit.pattern = pat->second;
      hits.push_back(std::move(hit));
    }
  }
  return hits;
}

// The whole query with the reference walk: both concept scatters, then
// positive hits, then negative hits, odd max_hits going to positive.
SentimentQueryResult ReferenceQuery(Cluster& cluster,
                                    const std::string& subject,
                                    size_t max_hits) {
  SentimentQueryResult result;
  result.subject = subject;
  SearchResult pos =
      cluster.Search(SentimentConceptToken(subject, Polarity::kPositive));
  SearchResult neg =
      cluster.Search(SentimentConceptToken(subject, Polarity::kNegative));
  result.positive_docs = pos.docs.size();
  result.negative_docs = neg.docs.size();
  result.nodes_total = pos.nodes_total;
  std::set<std::string> failed(pos.failed_services.begin(),
                               pos.failed_services.end());
  failed.insert(neg.failed_services.begin(), neg.failed_services.end());
  result.nodes_responded = result.nodes_total - failed.size();
  result.hits = ReferenceWalk(cluster, subject, Polarity::kPositive,
                              pos.docs, max_hits - max_hits / 2,
                              &result.fetch_failures);
  std::vector<SentimentHit> negative =
      ReferenceWalk(cluster, subject, Polarity::kNegative, neg.docs,
                    max_hits / 2, &result.fetch_failures);
  result.hits.insert(result.hits.end(), negative.begin(), negative.end());
  return result;
}

void ExpectSameHits(const std::vector<SentimentHit>& got,
                    const std::vector<SentimentHit>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc_id, want[i].doc_id) << context << " hit " << i;
    EXPECT_EQ(got[i].subject, want[i].subject) << context << " hit " << i;
    EXPECT_EQ(got[i].polarity, want[i].polarity) << context << " hit " << i;
    EXPECT_EQ(got[i].sentence, want[i].sentence) << context << " hit " << i;
    EXPECT_EQ(got[i].pattern, want[i].pattern) << context << " hit " << i;
  }
}

void ExpectSameResult(const SentimentQueryResult& got,
                      const SentimentQueryResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.subject, want.subject) << context;
  EXPECT_EQ(got.positive_docs, want.positive_docs) << context;
  EXPECT_EQ(got.negative_docs, want.negative_docs) << context;
  EXPECT_EQ(got.nodes_total, want.nodes_total) << context;
  EXPECT_EQ(got.nodes_responded, want.nodes_responded) << context;
  EXPECT_EQ(got.fetch_failures, want.fetch_failures) << context;
  EXPECT_EQ(got.deadline_expired, want.deadline_expired) << context;
  EXPECT_EQ(got.complete(), want.complete()) << context;
  ExpectSameHits(got.hits, want.hits, context);
}

// Every node/<i>/fetch dispatch the cluster's bus has counted.
uint64_t FetchCallsOnBus(const Cluster& cluster) {
  uint64_t calls = 0;
  for (const auto& [name, value] : cluster.metrics().Snapshot().counters) {
    if (common::StartsWith(name, "vinci/calls/node/") &&
        common::EndsWith(name, "/fetch")) {
      calls += value;
    }
  }
  return calls;
}

uint64_t FetchCallsTotal(const Cluster& cluster) {
  return cluster.metrics().Snapshot().CounterValue(
      "query/offline/fetch_calls_total");
}

constexpr char kUnknownSubject[] = "Zyxwvut Holdings";

// node/<i>/fetch answers one entity line, the entity's stored record, per
// id it holds, in request order, so a one-id request keeps the
// single-entity reply; a request with no id, a search scatter's call, gets
// an empty reply without a store read.
TEST(NodeFetchServiceTest, AnswersEachHeldIdInRequestOrder) {
  std::unique_ptr<Cluster> cluster = MinedWebCluster(2);
  ClusterNode& node = cluster->node(0);
  std::vector<std::string> held;
  for (int i = 7; i >= 0 && held.size() < 2; --i) {
    const std::string id = common::StrFormat("twice-%d", i);
    if (cluster->Route(id) == 0) held.push_back(id);
  }
  ASSERT_EQ(held.size(), 2u);
  auto entity_line = [&node](const std::string& id) {
    auto entity = node.store().Get(id);
    EXPECT_TRUE(entity.ok()) << id;
    return std::pair<std::string, std::string>(
        "entity", entity.ok() ? entity->EncodeRecord() : "");
  };
  auto fetch = [&cluster](
                   const std::vector<std::pair<std::string, std::string>>&
                       fields) {
    auto reply = cluster->bus().Call("node/0/fetch", EncodeMessage(fields));
    EXPECT_TRUE(reply.ok());
    return reply.ok() ? *reply : std::string("<failed>");
  };
  EXPECT_EQ(fetch({{"id", held[0]}}), EncodeMessage({entity_line(held[0])}));
  EXPECT_EQ(fetch({{"id", held[0]}, {"id", "no-such-doc"}, {"id", held[1]}}),
            EncodeMessage({entity_line(held[0]), entity_line(held[1])}));
  const uint64_t gets =
      node.metrics().Snapshot().CounterValue("store/gets_total");
  EXPECT_EQ(fetch({{"term", "kodak"}}), "");
  EXPECT_EQ(node.metrics().Snapshot().CounterValue("store/gets_total"), gets);
}

// The reply carries the stored record byte for byte, so an entity whose id,
// field name, attribute key and values hold a tab, a newline, a backslash
// or '=' comes back equal to what the store holds.
TEST(NodeFetchServiceTest, ReplyDecodesToTheStoredEntity) {
  Cluster cluster(2);
  Entity hostile("tab\tid", "crawl");
  hostile.SetBody("line one\nline two\\ with a backslash");
  hostile.SetField("k=v", "a=b\nc\\");
  AnnotationSpan span;
  span.begin = 0;
  span.end = 8;
  span.attrs["k=v"] = "x\ny";
  span.attrs["sentence"] = "line one";
  hostile.AddAnnotation("sentiment", span);
  hostile.AddConceptToken("sent/+/a=b");
  ASSERT_TRUE(cluster.Ingest(hostile).ok());
  const size_t node = cluster.Route(hostile.id());

  auto reply = cluster.bus().Call(common::StrFormat("node/%zu/fetch", node),
                                  EncodeMessage({{"id", hostile.id()}}));
  ASSERT_TRUE(reply.ok());
  auto stored = cluster.node(node).store().Get(hostile.id());
  ASSERT_TRUE(stored.ok());
  auto decoded = Entity::DecodeRecord(GetMessageField(*reply, "entity"));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, *stored);
  EXPECT_EQ(*decoded, hostile);
}

TEST(QueryFetchProperty, MatchesTheOneIdReferenceWalkOnOneToFourNodes) {
  for (size_t nodes = 1; nodes <= 4; ++nodes) {
    std::unique_ptr<Cluster> cluster = MinedWebCluster(nodes);
    SentimentQueryService service(cluster.get());
    const std::vector<std::string> known = service.KnownSubjects();
    ASSERT_GE(known.size(), 5u) << "nodes=" << nodes;
    // Other spellings of the same concept tokens: upper case matches every
    // span; underscores match none, so the walk runs through all of a
    // subject's docs in several rounds.
    std::vector<std::string> subjects = known;
    size_t multi_word = 0;
    for (const std::string& subject : known) {
      subjects.push_back(common::ToUpper(subject));
      if (subject.find(' ') == std::string::npos) continue;
      ++multi_word;
      std::string underscored = subject;
      std::replace(underscored.begin(), underscored.end(), ' ', '_');
      subjects.push_back(underscored);
    }
    ASSERT_GT(multi_word, 0u);
    subjects.push_back(kUnknownSubject);
    for (const std::string& subject : subjects) {
      for (size_t max_hits : {0, 1, 2, 7, 50, 100000}) {
        SentimentQueryResult want =
            ReferenceQuery(*cluster, subject, max_hits);
        ExpectSameResult(
            service.Query(subject, max_hits), want,
            common::StrFormat("nodes=%zu subject=%s max_hits=%zu", nodes,
                              subject.c_str(), max_hits));
      }
    }
    // The premise of the small max_hits: some doc holds two hits of one
    // polarity.
    SentimentQueryResult kodak = ReferenceQuery(*cluster, "kodak", 100000);
    std::set<std::pair<std::string, Polarity>> seen;
    size_t repeats = 0;
    for (const SentimentHit& hit : kodak.hits) {
      if (!seen.emplace(hit.doc_id, hit.polarity).second) ++repeats;
    }
    EXPECT_GT(repeats, 0u) << "nodes=" << nodes;
  }
}

// One round of one call per node fills both polarities on this corpus, so
// a query costs the two scatters' calls to every node's fetch service plus
// at most one batched fetch per node; a subject nothing mentions costs the
// scatters alone.
TEST(QueryFetchCallsTest, OneBatchedFetchPerNodeAndNoneForAnUnknownSubject) {
  constexpr size_t kNodes = 4;
  std::unique_ptr<Cluster> cluster = MinedWebCluster(kNodes);
  SentimentQueryService service(cluster.get());
  std::vector<std::string> subjects = service.KnownSubjects();
  ASSERT_GE(subjects.size(), 5u);
  subjects.push_back(kUnknownSubject);
  for (const std::string& subject : subjects) {
    const uint64_t calls_before = FetchCallsOnBus(*cluster);
    const uint64_t counted_before = FetchCallsTotal(*cluster);
    SentimentQueryResult result = service.Query(subject);
    const uint64_t calls = FetchCallsOnBus(*cluster) - calls_before;
    const uint64_t counted = FetchCallsTotal(*cluster) - counted_before;
    ASSERT_TRUE(result.complete()) << subject;
    EXPECT_GE(calls, 2 * kNodes) << subject;
    EXPECT_LE(calls, 2 * kNodes + kNodes) << subject;
    EXPECT_EQ(counted, calls - 2 * kNodes) << subject;
    if (subject == kUnknownSubject) {
      EXPECT_EQ(result.positive_docs + result.negative_docs, 0u);
      EXPECT_EQ(calls, 2 * kNodes);
    } else {
      EXPECT_FALSE(result.hits.empty()) << subject;
    }
  }
}

// A node whose fetch service is cut off: its docs still come back from the
// search, every batched fetch to it fails, and the walk skips its docs the
// way the one-id walk does. A whole-node partition keeps the reference's
// hits too (its docs never reach the fetch phase).
TEST(QueryFetchCallsTest, PartitionedNodeLeavesTheReferenceHits) {
  for (const char* cut : {"node/1/fetch", "node/1/"}) {
    std::unique_ptr<Cluster> cluster = MinedWebCluster(4);
    SentimentQueryService service(cluster.get());
    const std::vector<std::string> subjects = service.KnownSubjects();
    ASSERT_GE(subjects.size(), 5u);
    const bool whole_node = std::string(cut) == "node/1/";
    FaultInjector injector(5);
    injector.Partition(cut);
    cluster->bus().AttachFaultInjector(&injector);
    size_t failures = 0;
    // Small shares leave a walk short after a failed call, so it needs
    // further rounds to reach the docs the reference reaches.
    for (size_t max_hits : {1, 2, 7, 50}) {
      for (const std::string& subject : subjects) {
        const std::string context =
            common::StrFormat("cut=%s subject=%s max_hits=%zu", cut,
                              subject.c_str(), max_hits);
        SentimentQueryResult got = service.Query(subject, max_hits);
        SentimentQueryResult want =
            ReferenceQuery(*cluster, subject, max_hits);
        ExpectSameHits(got.hits, want.hits, context);
        EXPECT_EQ(got.positive_docs, want.positive_docs) << context;
        EXPECT_EQ(got.negative_docs, want.negative_docs) << context;
        EXPECT_EQ(got.fetch_failures > 0, want.fetch_failures > 0)
            << context;
        if (whole_node) {
          EXPECT_EQ(got.nodes_responded, 3u) << context;
          EXPECT_FALSE(got.complete()) << context;
        } else {
          EXPECT_EQ(got.nodes_responded, 4u) << context;
          EXPECT_EQ(got.complete(), got.fetch_failures == 0) << context;
        }
        failures += got.fetch_failures;
      }
    }
    if (whole_node) {
      EXPECT_EQ(failures, 0u);
    } else {
      EXPECT_GT(failures, 0u);
    }
    cluster->bus().AttachFaultInjector(nullptr);
  }
}

// An already-expired deadline fails both scatters up front, so the fetch
// phase has nothing to fetch and dispatches nothing.
TEST(QueryFetchCallsTest, ExpiredDeadlineDispatchesNoFetch) {
  std::unique_ptr<Cluster> cluster = MinedWebCluster(2);
  SentimentQueryService service(cluster.get());
  const std::vector<std::string> subjects = service.KnownSubjects();
  ASSERT_FALSE(subjects.empty());
  const uint64_t calls_before = FetchCallsOnBus(*cluster);
  SentimentQueryResult result =
      service.Query(subjects.front(), 50, Deadline::AtUs(1));
  EXPECT_EQ(FetchCallsOnBus(*cluster), calls_before);
  EXPECT_EQ(FetchCallsTotal(*cluster), 0u);
  EXPECT_TRUE(result.hits.empty());
  EXPECT_FALSE(result.complete());
}

// The first scatter's slow stats call spends the budget after the search
// itself answered: docs are known, but the deadline is checked before the
// node call, so nothing is fetched and the answer says it was cut short.
TEST(QueryFetchCallsTest, DeadlineSpentBeforeTheFetchStopsTheWalk) {
  std::unique_ptr<Cluster> cluster = MinedWebCluster(1);
  SentimentQueryService service(cluster.get());
  const std::vector<std::string> subjects = service.KnownSubjects();
  ASSERT_FALSE(subjects.empty());
  const std::string subject = subjects.front();
  ASSERT_GT(service.Query(subject).positive_docs, 0u);
  FaultInjector injector(9);
  FaultPolicy slow;
  slow.added_latency_us = 300000;
  injector.SetPolicy("node/0/stats", slow);
  cluster->bus().AttachFaultInjector(&injector);
  const uint64_t calls_before = FetchCallsOnBus(*cluster);
  const uint64_t counted_before = FetchCallsTotal(*cluster);
  SentimentQueryResult result =
      service.Query(subject, 50, Deadline::After(200000));
  cluster->bus().AttachFaultInjector(nullptr);
  EXPECT_GT(result.positive_docs, 0u);
  EXPECT_TRUE(result.hits.empty());
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_EQ(result.fetch_failures, 0u);
  EXPECT_FALSE(result.complete());
  // Only the first scatter's call to the fetch service went out.
  EXPECT_EQ(FetchCallsOnBus(*cluster) - calls_before, 1u);
  EXPECT_EQ(FetchCallsTotal(*cluster) - counted_before, 0u);
}

}  // namespace
}  // namespace wf::platform
