#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "common/durable_file.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "corpus/domain.h"
#include "corpus/web_gen.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "platform/data_store.h"
#include "platform/entity.h"
#include "platform/fault.h"
#include "platform/indexer.h"
#include "platform/ingest.h"
#include "platform/miner_framework.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"
#include "platform/vinci.h"
#include "serve/front_door.h"

namespace wf::platform {
namespace {

// --- Entity ---------------------------------------------------------------------

Entity MakeEntity(const std::string& id) {
  Entity e(id, "test");
  e.SetBody("The battery is excellent. The flash failed.");
  e.SetField("url", "http://example.com/" + id);
  AnnotationSpan span;
  span.begin = 4;
  span.end = 11;
  span.attrs["subject"] = "battery";
  span.attrs["polarity"] = "+";
  e.AddAnnotation("sentiment", span);
  e.AddConceptToken("sent/+/battery");
  return e;
}

TEST(EntityTest, FieldAccess) {
  Entity e = MakeEntity("e1");
  EXPECT_EQ(e.id(), "e1");
  EXPECT_EQ(e.source(), "test");
  EXPECT_TRUE(e.HasField("url"));
  EXPECT_FALSE(e.HasField("missing"));
  EXPECT_EQ(e.GetField("missing"), "");
}

TEST(EntityTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Entity::Deserialize("nonsense\tstuff\n").ok());
  EXPECT_FALSE(Entity::Deserialize("").ok());  // empty record
}

TEST(EntityTest, AnnotationsByLayer) {
  Entity e = MakeEntity("e");
  ASSERT_NE(e.GetAnnotations("sentiment"), nullptr);
  EXPECT_EQ(e.GetAnnotations("sentiment")->size(), 1u);
  EXPECT_EQ(e.GetAnnotations("nope"), nullptr);
}

// --- DataStore -------------------------------------------------------------------

TEST(DataStoreTest, PutGetDelete) {
  DataStore store;
  ASSERT_TRUE(store.Put(MakeEntity("a")).ok());
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_EQ(store.size(), 1u);

  auto got = store.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->id(), "a");

  EXPECT_TRUE(store.Delete("a").ok());
  EXPECT_FALSE(store.Contains("a"));
  EXPECT_EQ(store.Delete("a").code(), common::StatusCode::kNotFound);
}

TEST(DataStoreTest, PutRejectsDuplicate) {
  DataStore store;
  ASSERT_TRUE(store.Put(MakeEntity("a")).ok());
  EXPECT_EQ(store.Put(MakeEntity("a")).code(),
            common::StatusCode::kAlreadyExists);
  ASSERT_TRUE(store.Upsert(MakeEntity("a")).ok());  // upsert allows replacement
  EXPECT_EQ(store.size(), 1u);
}

TEST(DataStoreTest, UpdateInPlace) {
  DataStore store;
  ASSERT_TRUE(store.Put(MakeEntity("a")).ok());
  ASSERT_TRUE(store
                  .Update("a",
                          [](Entity& e) { e.SetField("seen", "yes"); })
                  .ok());
  EXPECT_EQ(store.Get("a")->GetField("seen"), "yes");
  EXPECT_EQ(store.Update("zz", [](Entity&) {}).code(),
            common::StatusCode::kNotFound);
}

TEST(DataStoreTest, ForEachVisitsAll) {
  DataStore store;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Put(MakeEntity(common::StrFormat("e%d", i))).ok());
  }
  size_t visits = 0;
  store.ForEach([&visits](const Entity&) { ++visits; });
  EXPECT_EQ(visits, 5u);
  EXPECT_EQ(store.Ids().size(), 5u);
}

TEST(DataStoreTest, FailedSavePreservesThePreviousSnapshot) {
  // Save goes through <path>.tmp + atomic rename; a save that cannot write
  // must leave the previous on-disk snapshot byte for byte (the old
  // in-place write truncated it on open).
  std::string path = "/tmp/wf_datastore_atomic_test.wfs";
  std::string tmp_path = path + ".tmp";
  std::filesystem::remove_all(path);
  std::filesystem::remove_all(tmp_path);

  DataStore store;
  ASSERT_TRUE(store.Put(MakeEntity("keep")).ok());
  ASSERT_TRUE(store.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp_path));  // no residue on success
  const auto first = common::ReadFileToString(path);
  ASSERT_TRUE(first.ok());

  // Block the temp file with a directory of the same name: the new save
  // fails before it can touch `path`.
  ASSERT_TRUE(std::filesystem::create_directory(tmp_path));
  ASSERT_TRUE(store.Put(MakeEntity("extra")).ok());
  EXPECT_EQ(store.Save(path).code(), common::StatusCode::kIOError);
  const auto survivor = common::ReadFileToString(path);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor.value(), first.value());

  // Unblocked, the same save lands both entities and cleans up its temp.
  std::filesystem::remove_all(tmp_path);
  ASSERT_TRUE(store.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp_path));
  const auto second = common::ReadFileToString(path);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), first.value());
  EXPECT_NE(second.value().find("keep"), std::string::npos);
  EXPECT_NE(second.value().find("extra"), std::string::npos);
  std::filesystem::remove(path);
}

// --- InvertedIndex -----------------------------------------------------------------

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() {
    Entity a("a", "t");
    a.SetBody("the battery is excellent and the flash is weak");
    index_.IndexEntity(a);
    Entity b("b", "t");
    b.SetBody("picture quality matters more than the battery");
    index_.IndexEntity(b);
    Entity c("c", "t");
    c.SetBody("nothing relevant in this one");
    c.AddConceptToken("sent/+/battery");
    index_.IndexEntity(c);
  }
  InvertedIndex index_;
};

TEST_F(IndexTest, TermQuery) {
  EXPECT_EQ(index_.Term("battery"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(index_.Term("zzz").empty());
}

TEST_F(IndexTest, CaseInsensitiveTerms) {
  EXPECT_EQ(index_.Term("BATTERY"), (std::vector<std::string>{"a", "b"}));
}

TEST_F(IndexTest, BooleanAnd) {
  EXPECT_EQ(index_.And({"battery", "flash"}),
            (std::vector<std::string>{"a"}));
  EXPECT_TRUE(index_.And({"battery", "zzz"}).empty());
  EXPECT_TRUE(index_.And({}).empty());
}

TEST_F(IndexTest, BooleanOr) {
  EXPECT_EQ(index_.Or({"flash", "picture"}),
            (std::vector<std::string>{"a", "b"}));
}

TEST_F(IndexTest, BooleanNot) {
  EXPECT_EQ(index_.Not("battery", "flash"),
            (std::vector<std::string>{"b"}));
}

TEST_F(IndexTest, PhraseQuery) {
  EXPECT_EQ(index_.Phrase({"picture", "quality"}),
            (std::vector<std::string>{"b"}));
  // Words present but not adjacent.
  EXPECT_TRUE(index_.Phrase({"battery", "flash"}).empty());
}

TEST_F(IndexTest, PrefixQuery) {
  EXPECT_EQ(index_.Prefix("batt"), (std::vector<std::string>{"a", "b"}));
}

TEST_F(IndexTest, ConceptTokensIndexed) {
  EXPECT_EQ(index_.Term("sent/+/battery"),
            (std::vector<std::string>{"c"}));
  // A miner's new concept token reaches the index with the whole entity.
  Entity a("a", "t");
  a.SetBody("the battery is excellent and the flash is weak");
  a.AddConceptToken("sent/+/battery");
  index_.IndexEntity(a);
  EXPECT_EQ(index_.Term("sent/+/battery"),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(index_.Term("excellent"), (std::vector<std::string>{"a"}));
}

TEST_F(IndexTest, TermFrequency) {
  EXPECT_EQ(index_.TermFrequency("the", "a"), 2u);
  EXPECT_EQ(index_.TermFrequency("battery", "c"), 0u);
  EXPECT_EQ(index_.TermFrequency("sent/+/battery", "c"), 1u);
}

TEST_F(IndexTest, ReindexReplacesPostings) {
  Entity a2("a", "t");
  a2.SetBody("completely different words now");
  index_.IndexEntity(a2);
  EXPECT_EQ(index_.Term("battery"), (std::vector<std::string>{"b"}));
  EXPECT_EQ(index_.Term("completely"), (std::vector<std::string>{"a"}));
}

TEST(IndexVocabularyTest, ReindexDropsTermsTheDocNoLongerHas) {
  InvertedIndex index;
  Entity a("doc-a", "t");
  a.SetBody("alpha beta");
  index.IndexEntity(a);
  EXPECT_EQ(index.vocabulary_size(), 2u);
  a.SetBody("beta");
  index.IndexEntity(a);
  EXPECT_EQ(index.vocabulary_size(), 1u);
  EXPECT_TRUE(index.Term("alpha").empty());
  EXPECT_TRUE(index.VocabularyWithPrefix("al").empty());
  EXPECT_EQ(index.VocabularyWithPrefix(""), (std::vector<std::string>{"beta"}));
}

TEST_F(IndexTest, Stats) {
  EXPECT_EQ(index_.document_count(), 3u);
  EXPECT_GT(index_.vocabulary_size(), 10u);
  EXPECT_FALSE(index_.VocabularyWithPrefix("sent/").empty());
}

TEST_F(IndexTest, FailedSavePreservesThePreviousSnapshot) {
  // Index saves go through the same temp-file + atomic-rename path as the
  // data store (the old in-place write truncated the previous snapshot the
  // moment the stream opened).
  std::string path = "/tmp/wf_index_atomic_test.wfi";
  std::string tmp_path = path + ".tmp";
  std::filesystem::remove_all(path);
  std::filesystem::remove_all(tmp_path);

  ASSERT_TRUE(index_.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp_path));  // no residue on success
  const auto first = common::ReadFileToString(path);
  ASSERT_TRUE(first.ok());

  // Block the temp file with a directory of the same name: the next save
  // must fail without touching `path`.
  ASSERT_TRUE(std::filesystem::create_directory(tmp_path));
  Entity extra("extra", "t");
  extra.SetBody("battery again");
  index_.IndexEntity(extra);
  EXPECT_EQ(index_.Save(path).code(), common::StatusCode::kIOError);
  // The pre-failure snapshot, byte for byte.
  const auto survivor = common::ReadFileToString(path);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor.value(), first.value());

  std::filesystem::remove_all(tmp_path);
  ASSERT_TRUE(index_.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp_path));
  const auto second = common::ReadFileToString(path);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), first.value());
  EXPECT_NE(second.value().find("extra"), std::string::npos);
  std::filesystem::remove(path);
}

// --- Indexing work ----------------------------------------------------------------

// Delta entries the index visits per entity (index/postings_scanned_total)
// while indexing the first `n` pages of `mined` into a fresh index, then
// while re-indexing them: {first pass, second pass}.
std::pair<double, double> ScannedPerEntity(const std::vector<Entity>& mined,
                                           size_t n) {
  obs::MetricsRegistry metrics;
  InvertedIndex index;
  index.AttachMetrics(&metrics);
  auto scanned = [&metrics] {
    return metrics.Snapshot().CounterValue("index/postings_scanned_total");
  };
  for (size_t i = 0; i < n; ++i) index.IndexEntity(mined[i]);
  const uint64_t first = scanned();
  for (size_t i = 0; i < n; ++i) index.IndexEntity(mined[i]);
  const uint64_t second = scanned() - first;
  return {static_cast<double>(first) / static_cast<double>(n),
          static_cast<double>(second) / static_cast<double>(n)};
}

// A work count, not a timing: per-entity indexing work must not grow with
// the corpus, whether a document is new to the delta or re-indexed.
TEST(IndexWorkTest, ScannedEntriesPerEntityStayFlatFrom1kTo8k) {
  const auto lexicon = lexicon::SentimentLexicon::Embedded();
  const auto patterns = lexicon::PatternDatabase::Embedded();
  AdHocSentimentMinerPlugin sentiment(&lexicon, &patterns);
  TokenStatsMiner token_stats;
  std::vector<Entity> mined;
  for (const corpus::GeneratedDoc& d : corpus::GenerateWebDocs(
           corpus::PetroleumDomain(), 8000, 77, corpus::WebGenOptions{})) {
    Entity e(d.id, "crawl");
    e.SetBody(d.body);
    std::unique_ptr<core::LinguisticAnalysis> analysis =
        core::AnalyzeDocument(d.body);
    ASSERT_TRUE(sentiment.Process(e, {*analysis}).ok());
    ASSERT_TRUE(token_stats.Process(e, {*analysis}).ok());
    mined.push_back(std::move(e));
  }
  const auto [first_1k, second_1k] = ScannedPerEntity(mined, 1000);
  std::printf("1000 docs: %.2f scanned/entity indexing, %.2f re-indexing\n",
              first_1k, second_1k);
  // Both passes do some work: duplicate checks on concept postings, and
  // the re-index drops every old entry.
  EXPECT_GT(first_1k, 0.0);
  EXPECT_GT(second_1k, first_1k);
  for (size_t n : {2000, 4000, 8000}) {
    const auto [first, second] = ScannedPerEntity(mined, n);
    std::printf("%zu docs: %.2f scanned/entity indexing, %.2f re-indexing\n",
                n, first, second);
    EXPECT_LE(first, 1.1 * first_1k) << n << " docs";
    EXPECT_LE(second, 1.1 * second_1k) << n << " docs";
  }
}

// The delta's gauges follow every write, not only checkpoints: wfstats
// shows how many docs and how many encoded bytes wait for the next freeze.
TEST(IndexGaugeTest, DeltaGaugesFollowEveryIndexEntity) {
  const std::string dir = "/tmp/wf_index_gauge_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::MetricsRegistry metrics;
  InvertedIndex index;
  index.AttachMetrics(&metrics);
  ASSERT_TRUE(index.EnableSegments(dir, "idx").ok());
  auto gauge = [&metrics](const std::string& name) {
    return metrics.Snapshot().GaugeValue(name);
  };
  auto page = [](size_t i) {
    Entity e(common::StrFormat("page-%zu", i), "crawl");
    e.SetBody(common::StrFormat("page %zu reports a strong quarter", i));
    e.AddConceptToken("sent/+/quarter");
    return e;
  };
  for (size_t i = 0; i < 7; ++i) index.IndexEntity(page(i));
  EXPECT_EQ(gauge("index/delta_docs"), 7);
  EXPECT_GT(gauge("index/delta_bytes"), 0);
  index.IndexEntity(page(3));
  EXPECT_EQ(gauge("index/delta_docs"), 7);
  EXPECT_GT(gauge("index/delta_bytes"), 0);
  ASSERT_TRUE(index.Freeze().ok());
  EXPECT_EQ(gauge("index/delta_docs"), 0);
  EXPECT_EQ(gauge("index/delta_bytes"), 0);
  std::filesystem::remove_all(dir);
}

// --- VinciBus ----------------------------------------------------------------------

TEST(VinciTest, RegisterAndCall) {
  VinciBus bus;
  ASSERT_TRUE(bus.RegisterService("upper", [](const std::string& req) {
                   return common::ToUpper(req);
                 }).ok());
  auto response = bus.Call("upper", "abc");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "ABC");
  EXPECT_EQ(bus.CallCount("upper"), 1u);
}

TEST(VinciTest, UnknownServiceFails) {
  VinciBus bus;
  EXPECT_EQ(bus.Call("ghost", "x").status().code(),
            common::StatusCode::kNotFound);
}

TEST(VinciTest, DuplicateRegistrationFails) {
  VinciBus bus;
  ASSERT_TRUE(bus.RegisterService("s", [](const std::string&) {
                   return "";
                 }).ok());
  EXPECT_EQ(bus.RegisterService("s", [](const std::string&) {
                 return "";
               }).code(),
            common::StatusCode::kAlreadyExists);
}

TEST(VinciTest, UnregisterRemoves) {
  VinciBus bus;
  ASSERT_TRUE(bus.RegisterService("s", [](const std::string&) {
                   return "";
                 }).ok());
  ASSERT_TRUE(bus.UnregisterService("s").ok());
  EXPECT_FALSE(bus.Call("s", "").ok());
  EXPECT_EQ(bus.UnregisterService("s").code(),
            common::StatusCode::kNotFound);
}

TEST(VinciTest, CallAllScattersByPrefix) {
  VinciBus bus;
  for (int i = 0; i < 3; ++i) {
    std::string name = "node/" + std::to_string(i) + "/echo";
    ASSERT_TRUE(bus.RegisterService(name, [i](const std::string&) {
                     return std::to_string(i);
                   }).ok());
  }
  ASSERT_TRUE(bus.RegisterService("app/other", [](const std::string&) {
                   return "x";
                 }).ok());
  auto responses = bus.CallAll("node/", "req");
  ASSERT_EQ(responses.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(responses[i].first, "node/" + std::to_string(i) + "/echo");
    ASSERT_TRUE(responses[i].second.ok());
    EXPECT_EQ(*responses[i].second, std::to_string(i));
  }
}

TEST(VinciTest, NotFoundResolvesLocallyWithoutSimulatedLatency) {
  VinciBus bus;
  bus.SetSimulatedLatency(50000);  // 50 ms per delivered call
  auto start = std::chrono::steady_clock::now();
  auto result = bus.Call("node/9/missing", "req");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kNotFound);
  // A registry miss is a local lookup: no simulated round trip is charged.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
}

TEST(VinciTest, WireFormatRoundTrip) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"subject", "NR70"},
      {"sentence", "line one\nline two"},
      {"subject", "second value"},
  };
  std::string encoded = EncodeMessage(pairs);
  EXPECT_EQ(DecodeMessage(encoded), pairs);
  EXPECT_EQ(GetMessageField(encoded, "subject"), "NR70");
  EXPECT_EQ(GetMessageFields(encoded, "subject").size(), 2u);
  EXPECT_EQ(GetMessageField(encoded, "missing"), "");
}

TEST(VinciTest, WireFormatEscapesHostileKeysAndValues) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"key=with=eq", "value=with=eq"},  // '=' in a key used to split wrong
      {"key\nnewline", "v"},
      {"back\\slash", "trailing\\"},
      {"literal\\n", "literal\\n"},  // backslash-n, not a newline
      {"", ""},                      // even empty keys round-trip
  };
  std::string encoded = EncodeMessage(pairs);
  EXPECT_EQ(DecodeMessage(encoded), pairs);
  EXPECT_EQ(GetMessageField(encoded, "key=with=eq"), "value=with=eq");
}

TEST(VinciTest, DecodeToleratesMalformedInput) {
  // Lines without an unescaped '=' are skipped, not misparsed.
  EXPECT_TRUE(DecodeMessage("no separator line\n").empty());
  // A dangling trailing backslash survives instead of being dropped.
  auto decoded = DecodeMessage("k=v\\\n");
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].second, "v\\");
  // An escaped '=' in a key does not split the line there.
  auto escaped = DecodeMessage("a\\=b=c\n");
  ASSERT_EQ(escaped.size(), 1u);
  EXPECT_EQ(escaped[0].first, "a=b");
  EXPECT_EQ(escaped[0].second, "c");
}

// --- Miner framework ----------------------------------------------------------------

TEST(MinerFrameworkTest, PipelineRunsInOrderAndCounts) {
  MinerPipeline pipeline;
  pipeline.AddMiner(std::make_unique<SentenceBoundaryMiner>());
  pipeline.AddMiner(std::make_unique<TokenStatsMiner>());

  Entity body("e", "t");
  body.SetBody("First sentence. Second sentence here.");
  DataStore store;
  ASSERT_TRUE(store.Put(body).ok());
  pipeline.ProcessStore(store);
  auto e = store.Get("e");
  ASSERT_TRUE(e.ok());

  ASSERT_NE(e->GetAnnotations("sentences"), nullptr);
  EXPECT_EQ(e->GetAnnotations("sentences")->size(), 2u);
  EXPECT_EQ(e->GetField("word_count"), "5");

  auto stats = pipeline.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].entities, 1u);
  EXPECT_EQ(stats[0].failures, 0u);
}

TEST(MinerFrameworkTest, SentimentPluginAnnotatesAndEmitsConcepts) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  AdHocSentimentMinerPlugin plugin(&lexicon, &patterns);
  Entity e("e", "t");
  e.SetBody("Kodak impresses everyone who tried it.");
  ASSERT_TRUE(plugin.Process(e, {*core::AnalyzeDocument(e.body())}).ok());
  ASSERT_NE(e.GetAnnotations("sentiment"), nullptr);
  ASSERT_EQ(e.concept_tokens().size(), 1u);
  EXPECT_EQ(e.concept_tokens()[0], "sent/+/kodak");
}

TEST(MinerFrameworkTest, ConceptTokenFormat) {
  EXPECT_EQ(SentimentConceptToken("Sunrise Oil",
                                  lexicon::Polarity::kNegative),
            "sent/-/sunrise_oil");
  EXPECT_EQ(SentimentConceptToken("NR70", lexicon::Polarity::kPositive),
            "sent/+/nr70");
}

// --- Cluster + ingest + query service -------------------------------------------------

TEST(ClusterTest, RoutingIsStableAndBalanced) {
  Cluster cluster(4);
  std::map<size_t, int> counts;
  for (int i = 0; i < 1000; ++i) {
    size_t shard = cluster.Route("doc-" + std::to_string(i));
    EXPECT_EQ(shard, cluster.Route("doc-" + std::to_string(i)));
    ++counts[shard];
  }
  for (const auto& [shard, n] : counts) {
    EXPECT_GT(n, 150);  // roughly balanced
  }
}

TEST(ClusterTest, IngestStoresOnOwningNode) {
  Cluster cluster(3);
  Entity e = MakeEntity("routed");
  size_t shard = cluster.Route("routed");
  ASSERT_TRUE(cluster.Ingest(e).ok());
  EXPECT_TRUE(cluster.node(shard).store().Contains("routed"));
  EXPECT_EQ(cluster.TotalEntities(), 1u);
  // Duplicate rejected.
  EXPECT_FALSE(cluster.Ingest(e).ok());
}

TEST(ClusterTest, SearchScattersOverBus) {
  Cluster cluster(2);
  for (int i = 0; i < 10; ++i) {
    Entity e("doc-" + std::to_string(i), "t");
    e.SetBody(i % 2 == 0 ? "contains magicword here"
                         : "nothing to see");
    ASSERT_TRUE(cluster.Ingest(std::move(e)).ok());
  }
  cluster.MineAndIndexAll();
  SearchResult result = cluster.Search("magicword");
  EXPECT_EQ(result.docs.size(), 5u);
  EXPECT_EQ(result.nodes_total, 2u);
  EXPECT_EQ(result.nodes_responded, 2u);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(cluster.SearchPhrase({"contains", "magicword"}).docs.size(), 5u);
}

TEST(IngestTest, BatchIngestorDrains) {
  Cluster cluster(2);
  BatchIngestor ingestor("src", {{"a", "body a"}, {"b", "body b"}});
  EXPECT_EQ(IngestAll(ingestor, cluster), 2u);
  EXPECT_EQ(cluster.TotalEntities(), 2u);
}

TEST(IngestTest, CrawlerFollowsLinksAndDedups) {
  std::map<std::string, CrawlerSimulator::Page> site;
  site["u0"] = {"page zero", {"u1", "u2"}};
  site["u1"] = {"page one", {"u0", "u2"}};
  site["u2"] = {"page two", {"u3"}};
  site["u3"] = {"page three", {}};
  CrawlerSimulator crawler(
      {"u0"}, [&site](const std::string& url)
                  -> std::optional<CrawlerSimulator::Page> {
        auto it = site.find(url);
        if (it == site.end()) return std::nullopt;
        return it->second;
      });
  std::vector<std::string> crawled;
  while (auto e = crawler.Next()) crawled.push_back(e->id());
  EXPECT_EQ(crawled,
            (std::vector<std::string>{"u0", "u1", "u2", "u3"}));
  EXPECT_EQ(crawler.fetched(), 4u);
}

TEST(IngestTest, CrawlerRespectsPageLimit) {
  std::map<std::string, CrawlerSimulator::Page> site;
  for (int i = 0; i < 10; ++i) {
    site[common::StrFormat("p%d", i)] = {
        "body", {common::StrFormat("p%d", (i + 1) % 10)}};
  }
  CrawlerSimulator crawler(
      {"p0"},
      [&site](const std::string& url)
          -> std::optional<CrawlerSimulator::Page> {
        return site.at(url);
      },
      /*max_pages=*/3);
  size_t n = 0;
  while (crawler.Next().has_value()) ++n;
  EXPECT_EQ(n, 3u);
}

TEST(QueryServiceTest, EndToEndSentimentQuery) {
  auto lexicon = lexicon::SentimentLexicon::Embedded();
  auto patterns = lexicon::PatternDatabase::Embedded();
  Cluster cluster(2);
  BatchIngestor ingestor(
      "t", {{"d1", "Kodak impresses everyone who tried it."},
            {"d2", "Lawsuits plague Kodak."},
            {"d3", "Kodak announced a meeting."}});
  IngestAll(ingestor, cluster);
  cluster.DeployMiner([&lexicon, &patterns] {
    return std::make_unique<AdHocSentimentMinerPlugin>(&lexicon, &patterns);
  });
  cluster.MineAndIndexAll();

  SentimentQueryService service(&cluster);
  ASSERT_TRUE(service.RegisterService().ok());

  SentimentQueryResult result = service.Query("Kodak");
  EXPECT_EQ(result.positive_docs, 1u);
  EXPECT_EQ(result.negative_docs, 1u);
  ASSERT_EQ(result.hits.size(), 2u);

  // The service is also reachable over the bus.
  auto response = cluster.bus().Call(
      "app/sentiment_query", EncodeMessage({{"subject", "Kodak"}}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(GetMessageField(*response, "positive_docs"), "1");

  // Its reply is the payload an uncached front door renders.
  serve::FrontDoorOptions door_options;
  door_options.cache_entries = 0;
  serve::FrontDoor door(&service, &cluster, door_options);
  serve::QueryRequest request;
  request.subject = "Kodak";
  serve::QueryReply reply = door.Query(request);
  ASSERT_TRUE(reply.status.ok());
  EXPECT_EQ(*response, reply.payload);

  // Discovered subjects include kodak.
  std::vector<std::string> subjects = service.KnownSubjects();
  EXPECT_NE(std::find(subjects.begin(), subjects.end(), "kodak"),
            subjects.end());
}

// Ingests `docs` into `cluster` and mines them with the Mode-B plugin.
void MineCluster(Cluster* cluster,
                 std::vector<std::pair<std::string, std::string>> docs) {
  static const auto* const lexicon =
      new lexicon::SentimentLexicon(lexicon::SentimentLexicon::Embedded());
  static const auto* const patterns =
      new lexicon::PatternDatabase(lexicon::PatternDatabase::Embedded());
  BatchIngestor ingestor("t", std::move(docs));
  IngestAll(ingestor, *cluster);
  cluster->DeployMiner([] {
    return std::make_unique<AdHocSentimentMinerPlugin>(lexicon, patterns);
  });
  cluster->MineAndIndexAll();
}

TEST(QueryServiceTest, HitsNeverExceedMaxHits) {
  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 6; ++i) {
    docs.emplace_back(common::StrFormat("p%d", i),
                      "Kodak impresses everyone who tried it.");
    docs.emplace_back(common::StrFormat("n%d", i), "Lawsuits plague Kodak.");
  }
  Cluster cluster(2);
  MineCluster(&cluster, std::move(docs));
  SentimentQueryService service(&cluster);
  for (size_t max_hits : {0, 1, 2, 5, 50}) {
    SentimentQueryResult result = service.Query("Kodak", max_hits);
    EXPECT_EQ(result.positive_docs, 6u);
    EXPECT_EQ(result.negative_docs, 6u);
    EXPECT_EQ(result.hits.size(), std::min<size_t>(max_hits, 12))
        << "max_hits=" << max_hits;
  }
}

TEST(QueryServiceTest, KnownSubjectsSkipsADownNode) {
  const char* const kSubjects[] = {"Kodak", "Sony", "Nikon", "Canon",
                                   "Olympus", "Pentax"};
  std::vector<std::pair<std::string, std::string>> docs;
  for (const char* subject : kSubjects) {
    for (int i = 0; i < 2; ++i) {
      docs.emplace_back(common::StrFormat("%s-%d", subject, i),
                        common::StrFormat("Lawsuits plague %s.", subject));
    }
  }
  Cluster cluster(2);
  MineCluster(&cluster, std::move(docs));
  SentimentQueryService service(&cluster);
  const std::vector<std::string> all = service.KnownSubjects();
  ASSERT_EQ(all.size(), 6u);

  ASSERT_TRUE(cluster.CrashNode(1).ok());
  const std::vector<std::string> up = service.KnownSubjects();
  EXPECT_FALSE(up.empty());
  EXPECT_TRUE(std::includes(all.begin(), all.end(), up.begin(), up.end()));
}

// A node that is up but cut off from the bus is missing from the answer,
// and the coverage says so. One page per subject, so each node holds only
// some of the six.
TEST(QueryServiceTest, KnownSubjectsReportsAPartitionedNode) {
  const char* const kSubjects[] = {"Kodak", "Sony", "Nikon", "Canon",
                                   "Olympus", "Pentax"};
  std::vector<std::pair<std::string, std::string>> docs;
  std::set<std::string> on_node0;
  Cluster cluster(2);
  for (const char* subject : kSubjects) {
    const std::string id = common::StrFormat("%s-0", subject);
    if (cluster.Route(id) == 0) on_node0.insert(common::ToLower(subject));
    docs.emplace_back(id, common::StrFormat("Lawsuits plague %s.", subject));
  }
  ASSERT_FALSE(on_node0.empty());
  ASSERT_LT(on_node0.size(), 6u);
  MineCluster(&cluster, std::move(docs));
  SentimentQueryService service(&cluster);
  SearchResult coverage;
  ASSERT_EQ(service.KnownSubjects(&coverage).size(), 6u);
  EXPECT_TRUE(coverage.complete());

  FaultInjector injector(3);
  injector.Partition("node/1/");
  cluster.bus().AttachFaultInjector(&injector);
  const std::vector<std::string> up = service.KnownSubjects(&coverage);
  cluster.bus().AttachFaultInjector(nullptr);
  EXPECT_EQ(up, std::vector<std::string>(on_node0.begin(), on_node0.end()));
  EXPECT_EQ(coverage.nodes_total, 2u);
  EXPECT_EQ(coverage.nodes_responded, 1u);
  EXPECT_EQ(coverage.failed_services,
            std::vector<std::string>{"node/1/search"});
}

}  // namespace
}  // namespace wf::platform
