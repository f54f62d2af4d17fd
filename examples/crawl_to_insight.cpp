// End-to-end platform walkthrough (Figure 1): a simulated web crawl feeds
// a durable cluster, entity-level miners annotate each page, the indexer
// builds text + conceptual indices, every node checkpoints, crashes and
// restarts from its segments, and queries run scatter/gather over the
// Vinci bus.
//
//   $ ./crawl_to_insight [data_dir]
//
// `data_dir` is emptied first: a durable cluster recovers whatever its
// directory holds, so a second run would otherwise restore the first
// run's shards and refuse every ingest of the same pages.

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "corpus/datasets.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/cluster.h"
#include "platform/ingest.h"
#include "platform/miner_framework.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"

int main(int argc, char** argv) {
  using namespace wf;
  const std::string data_dir =
      argc > 1 ? argv[1] : "/tmp/webfountain_crawl_to_insight";

  // Build a small synthetic "web": pages link to the next few pages.
  corpus::WebDataset petro = corpus::BuildPetroleumWebDataset(7);
  std::map<std::string, std::string> site;
  std::vector<std::string> urls;
  for (size_t i = 0; i < petro.docs.size(); ++i) {
    std::string url = common::StrFormat("http://petro.example/%zu", i);
    site[url] = petro.docs[i].body;
    urls.push_back(url);
  }

  // Crawl from a single seed; each page links to three others.
  platform::CrawlerSimulator crawler(
      {urls[0]},
      [&site, &urls](const std::string& url)
          -> std::optional<platform::CrawlerSimulator::Page> {
        auto it = site.find(url);
        if (it == site.end()) return std::nullopt;
        platform::CrawlerSimulator::Page page;
        page.body = it->second;
        size_t index = std::stoul(url.substr(url.rfind('/') + 1));
        for (size_t k = 1; k <= 3; ++k) {
          page.outlinks.push_back(urls[(index * 3 + k) % urls.size()]);
        }
        return page;
      });

  platform::Cluster cluster(4);
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  platform::Cluster::DurabilityOptions durability;
  durability.dir = data_dir;
  WF_CHECK_OK(cluster.EnableDurability(durability));
  size_t stored = platform::IngestAll(crawler, cluster);
  std::printf("Crawled %zu pages into %zu shards.\n", stored,
              cluster.node_count());

  // Deploy the miner pipeline: sentence boundaries, token stats, and the
  // ad-hoc sentiment miner.
  lexicon::SentimentLexicon lexicon = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  cluster.DeployMiner(
      [] { return std::make_unique<platform::SentenceBoundaryMiner>(); });
  cluster.DeployMiner(
      [] { return std::make_unique<platform::TokenStatsMiner>(); });
  cluster.DeployMiner([&lexicon, &patterns] {
    return std::make_unique<platform::AdHocSentimentMinerPlugin>(&lexicon,
                                                                 &patterns);
  });
  cluster.MineAndIndexAll();

  for (size_t n = 0; n < cluster.node_count(); ++n) {
    for (const auto& s : cluster.node(n).pipeline().Stats()) {
      if (n == 0) {
        std::printf("miner %-18s node0: %zu entities, %lld us\n",
                    s.name.c_str(), s.entities,
                    static_cast<long long>(s.total_time.count()));
      }
    }
  }

  // Checkpoint every shard to its segments, then crash each node and
  // restart it from disk.
  WF_CHECK_OK(cluster.CheckpointAll());
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    WF_CHECK_OK(cluster.CrashNode(n));
    WF_CHECK_OK(cluster.RestartNode(n));
  }
  std::printf("Checkpoint, crash and restart: %zu entities recovered from "
              "%s.\n",
              cluster.TotalEntities(), data_dir.c_str());

  // Queries: full-text over the bus, then sentiment roll-ups.
  std::printf("\nPages mentioning 'pipeline': %zu\n",
              cluster.Search("pipeline").docs.size());
  std::printf("Pages with the phrase 'safety record': %zu\n",
              cluster.SearchPhrase({"safety", "record"}).docs.size());

  platform::SentimentQueryService service(&cluster);
  WF_CHECK_OK(service.RegisterService());
  for (const corpus::Product& p : petro.domain->products) {
    platform::SentimentQueryResult r = service.Query(p.name, 2);
    if (r.positive_docs + r.negative_docs == 0) continue;
    std::printf("%-24s +%zu / -%zu pages\n", p.name.c_str(),
                r.positive_docs, r.negative_docs);
  }

  std::printf("\nVinci bus services: %zu registered\n",
              cluster.bus().Services().size());
  return 0;
}
