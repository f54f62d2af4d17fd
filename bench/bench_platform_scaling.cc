// Exercises the architecture of Figures 1-3: the full
// ingest -> store -> mine -> index -> query pipeline on the simulated
// shared-nothing cluster, sweeping the node count. The paper's platform
// scales by full parallelism over shards; the same shape (near-linear
// mining speed-up with nodes, flat scatter/gather query latency) should
// hold in the simulation.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench/alloc_hook.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "corpus/datasets.h"
#include "corpus/domain.h"
#include "corpus/web_gen.h"
#include "eval/report.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "platform/fault.h"
#include "platform/ingest.h"
#include "platform/mine_executor.h"
#include "platform/miner_framework.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"

int main() {
  using namespace wf;
  using Clock = std::chrono::steady_clock;
  const uint64_t seed = bench::BenchSeed();

  // A mixed crawl: petroleum + pharma web pages.
  corpus::WebDataset petro = corpus::BuildPetroleumWebDataset(seed + 1);
  corpus::WebDataset pharma = corpus::BuildPharmaWebDataset(seed + 2);
  std::vector<std::pair<std::string, std::string>> docs;
  for (const corpus::GeneratedDoc& d : petro.docs) {
    docs.emplace_back(d.id, d.body);
  }
  for (const corpus::GeneratedDoc& d : pharma.docs) {
    docs.emplace_back(d.id, d.body);
  }

  lexicon::SentimentLexicon lex = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();

  std::printf("%s", eval::Banner("Platform scaling — ingest/mine/index/"
                                 "query vs node count")
                        .c_str());
  std::printf("Hardware threads available: %u — mining speed-up is bounded "
              "by this; on a single-core host the sweep measures sharding "
              "overhead instead (expect ~flat mine times and query latency "
              "growing mildly with the scatter width).\n\n",
              std::thread::hardware_concurrency());
  eval::TablePrinter table({"Nodes", "Entities", "Ingest ms", "Mine+index ms",
                            "Speed-up", "Query us (avg of 64)"});
  bench::BenchJsonWriter json("platform_scaling");

  double base_mine_ms = 0.0;
  for (size_t nodes : {1, 2, 4, 8}) {
    platform::Cluster cluster(nodes);
    // Model a ~200us network round trip per service call, as on the real
    // cluster; scatter/gather latency then scales with fan-out.
    cluster.bus().SetSimulatedLatency(200);

    auto t0 = Clock::now();
    platform::BatchIngestor ingestor("crawl", docs);
    size_t stored = platform::IngestAll(ingestor, cluster);
    auto t1 = Clock::now();

    cluster.DeployMiner([&lex, &patterns] {
      return std::make_unique<platform::AdHocSentimentMinerPlugin>(
          &lex, &patterns);
    });
    cluster.MineAndIndexAll();
    auto t2 = Clock::now();

    platform::SentimentQueryService service(&cluster);
    WF_CHECK_OK(service.RegisterService());
    // Scatter/gather query latency over the bus.
    auto t3 = Clock::now();
    size_t total_hits = 0;
    const auto& products = pharma.domain->products;
    for (int i = 0; i < 64; ++i) {
      platform::SentimentQueryResult r = service.Query(
          products[static_cast<size_t>(i) % products.size()].name, 4);
      total_hits += r.positive_docs + r.negative_docs;
    }
    auto t4 = Clock::now();

    double ingest_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    double mine_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    double query_us =
        std::chrono::duration<double, std::micro>(t4 - t3).count() / 64.0;
    if (nodes == 1) base_mine_ms = mine_ms;
    table.AddRow({std::to_string(nodes), std::to_string(stored),
                  common::StrFormat("%.1f", ingest_ms),
                  common::StrFormat("%.1f", mine_ms),
                  common::StrFormat("%.2fx", base_mine_ms / mine_ms),
                  common::StrFormat("%.0f", query_us)});
    json.AddRow("scaling",
                {bench::Int("nodes", nodes), bench::Int("entities", stored),
                 bench::Num("ingest_ms", ingest_ms),
                 bench::Num("mine_ms", mine_ms),
                 bench::Num("speedup", base_mine_ms / mine_ms),
                 bench::Num("query_us", query_us)});
    (void)total_hits;
  }
  std::printf("%s", table.ToString().c_str());

  // --- Mining: executor thread sweep (1 shard) -----------------------------
  // Isolates one shard's mining sweep (MinerPipeline::ProcessStore — no
  // indexing or query in the timed region) across the MineExecutor's
  // worker count. Each thread count mines its own freshly filled store:
  // re-mining the *same* store would append duplicate annotation layers and
  // bloat the entity copies, confounding the comparison. Thread speed-up is
  // bounded by the hardware counter printed above — on a single-core host
  // expect ~flat times.
  std::printf("%s",
              eval::Banner("Mining — executor threads, one shard").c_str());
  // 100x the cluster sweep's corpus: 60k+ entities, so the sweep runs long
  // enough that per-document costs (allocations, analysis) dominate fixed
  // setup and the thread sweep measures steady-state throughput.
  // WF_BENCH_SMALL=1 falls back to the small corpus for quick iteration.
  std::vector<std::pair<std::string, std::string>> mine_docs;
  if (::getenv("WF_BENCH_SMALL") != nullptr) {
    mine_docs = docs;
  } else {
    for (const corpus::GeneratedDoc& d : corpus::GenerateWebDocs(
             corpus::PetroleumDomain(), 30500, seed + 3,
             corpus::WebGenOptions{})) {
      mine_docs.emplace_back(d.id, d.body);
    }
    for (const corpus::GeneratedDoc& d : corpus::GenerateWebDocs(
             corpus::PharmaDomain(), 30500, seed + 4,
             corpus::WebGenOptions{})) {
      mine_docs.emplace_back("ph-" + d.id, d.body);
    }
  }
  std::printf("Mining corpus: %zu entities\n\n", mine_docs.size());
  // A 1-node cluster's full MineAndIndexAll (mining + commit + indexing)
  // over `corpus`, in ms.
  auto mine_and_index_ms =
      [&lex, &patterns](
          const std::vector<std::pair<std::string, std::string>>& corpus,
          size_t threads) {
        platform::Cluster one(1);
        one.ConfigureMining(platform::MineExecutorOptions{.threads = threads});
        platform::BatchIngestor ingest("crawl", corpus);
        platform::IngestAll(ingest, one);
        one.DeployMiner([&lex, &patterns] {
          return std::make_unique<platform::AdHocSentimentMinerPlugin>(
              &lex, &patterns);
        });
        auto t0 = Clock::now();
        one.MineAndIndexAll();
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
      };
  eval::TablePrinter mtable(
      {"Threads", "Entities", "Mine ms", "Ents/s", "Allocs/doc"});
  bench::BenchJsonWriter json_mining("mining");
  double base_sweep_ms = 0.0;
  for (size_t threads : {1, 2, 4, 8}) {
    platform::MineExecutor executor(
        platform::MineExecutorOptions{.threads = threads});
    platform::DataStore store;
    for (const auto& [id, body] : mine_docs) {
      platform::Entity e(id, "crawl");
      e.SetBody(body);
      (void)store.Put(std::move(e));
    }
    platform::MinerPipeline pipeline;
    pipeline.AddMiner(
        std::make_unique<platform::AdHocSentimentMinerPlugin>(&lex, &patterns));
    // Allocations per analyzed document alongside throughput: the number
    // the arena/interner front half holds down (tests/alloc_gate_test.cc
    // gates it; this bench trends it).
    const uint64_t allocs_before = bench::Heap().allocations;
    auto m0 = Clock::now();
    pipeline.ProcessStore(store, &executor);
    auto m1 = Clock::now();
    const uint64_t allocs = bench::Heap().allocations - allocs_before;

    size_t stored = store.size();
    double mine_ms = std::chrono::duration<double, std::milli>(m1 - m0).count();
    if (threads == 1) base_sweep_ms = mine_ms;
    double eps = mine_ms > 0 ? 1000.0 * stored / mine_ms : 0.0;
    const uint64_t allocs_per_doc = stored > 0 ? allocs / stored : allocs;
    mtable.AddRow({std::to_string(threads), std::to_string(stored),
                   common::StrFormat("%.1f", mine_ms),
                   common::StrFormat("%.0f", eps),
                   std::to_string(allocs_per_doc)});
    json_mining.AddRow(
        "mining",
        {bench::Int("threads", threads), bench::Int("entities", stored),
         bench::Num("mine_ms", mine_ms), bench::Num("entities_per_sec", eps),
         bench::Num("thread_speedup",
                    mine_ms > 0 ? base_sweep_ms / mine_ms : 0.0),
         bench::Int("allocs_per_doc", allocs_per_doc)});

    // End-to-end context: the same corpus through MineAndIndexAll.
    const double e2e_ms = mine_and_index_ms(mine_docs, threads);
    json_mining.AddRow(
        "mine_and_index_e2e",
        {bench::Int("threads", threads), bench::Int("entities", stored),
         bench::Num("mine_index_ms", e2e_ms),
         bench::Num("entities_per_sec",
                    e2e_ms > 0 ? 1000.0 * stored / e2e_ms : 0.0)});
  }
  std::printf("%s", mtable.ToString().c_str());

  // --- Mining at two corpus scales (1 node) --------------------------------
  // The whole Mode-B pass (mine, index, commit) over the first tenth of the
  // corpus and over all of it, at the hardware thread count. Per-doc cost
  // must stay flat as the shard grows: a superlinear layer shows as a
  // ratio well above 1.
  const size_t scale_threads = platform::MineExecutor::ResolveThreads(0);
  eval::TablePrinter stable({"Entities", "Mine+index ms", "us/doc"});
  std::vector<double> us_per_doc;
  const std::vector<size_t> scale_sizes = {mine_docs.size() / 10,
                                          mine_docs.size()};
  for (size_t n : scale_sizes) {
    const double ms = mine_and_index_ms(
        {mine_docs.begin(), mine_docs.begin() + static_cast<long>(n)},
        scale_threads);
    us_per_doc.push_back(n > 0 ? 1000.0 * ms / static_cast<double>(n) : 0.0);
    stable.AddRow({std::to_string(n), common::StrFormat("%.1f", ms),
                   common::StrFormat("%.1f", us_per_doc.back())});
  }
  const double scale_ratio =
      us_per_doc[0] > 0 ? us_per_doc[1] / us_per_doc[0] : 0.0;
  std::printf("One-node MineAndIndexAll at two corpus scales (%zu threads): "
              "us/doc ratio %.2f\n%s",
              scale_threads, scale_ratio, stable.ToString().c_str());
  json_mining.AddRow(
      "mine_and_index_scale",
      {bench::Int("threads", scale_threads),
       bench::Int("small_entities", scale_sizes[0]),
       bench::Num("small_us_per_doc", us_per_doc[0]),
       bench::Int("full_entities", scale_sizes[1]),
       bench::Num("full_us_per_doc", us_per_doc[1]),
       bench::Num("us_per_doc_ratio", scale_ratio)});

  std::string mining_json_path = json_mining.WriteFile();
  if (!mining_json_path.empty()) {
    std::printf("Machine-readable mining results: %s\n",
                mining_json_path.c_str());
  }

  // --- Resilience: the same query mix on a degraded 4-node cluster ---------
  // Chaos costs latency (retries, backoff) but never correctness: queries
  // complete with honest coverage, and after healing the answers return to
  // the fault-free shape.
  std::printf("%s", eval::Banner("Resilience — query latency and coverage "
                                 "under injected faults (4 nodes)")
                        .c_str());
  platform::Cluster cluster(4);
  cluster.bus().SetSimulatedLatency(200);
  platform::BatchIngestor ingestor("crawl", docs);
  (void)platform::IngestAll(ingestor, cluster);
  cluster.DeployMiner([&lex, &patterns] {
    return std::make_unique<platform::AdHocSentimentMinerPlugin>(&lex,
                                                                 &patterns);
  });
  cluster.MineAndIndexAll();
  platform::SentimentQueryService service(&cluster);
  WF_CHECK_OK(service.RegisterService());

  platform::FaultInjector injector(seed + 3);
  cluster.bus().AttachFaultInjector(&injector);

  eval::TablePrinter rtable({"Scenario", "Query us (avg of 32)",
                             "Nodes responded", "Fetch failures"});
  auto measure = [&](const std::string& label) {
    const auto& products = petro.domain->products;
    size_t responded = 0, total = 0, fetch_failures = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < 32; ++i) {
      platform::SentimentQueryResult r = service.Query(
          products[static_cast<size_t>(i) % products.size()].name, 4);
      responded += r.nodes_responded;
      total += r.nodes_total;
      fetch_failures += r.fetch_failures;
    }
    auto t1 = Clock::now();
    double query_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / 32.0;
    rtable.AddRow({label, common::StrFormat("%.0f", query_us),
                   common::StrFormat("%zu/%zu", responded, total),
                   std::to_string(fetch_failures)});
    json.AddRow("resilience",
                {bench::Str("scenario", label), bench::Num("query_us", query_us),
                 bench::Int("nodes_responded", responded),
                 bench::Int("nodes_total", total),
                 bench::Int("fetch_failures", fetch_failures)});
  };

  measure("fault-free");
  platform::FaultPolicy flaky;
  flaky.fail_probability = 0.2;
  injector.SetPolicy("node/", flaky);
  measure("20% call failures");
  injector.Partition("node/1/");
  measure("+ node 1 partitioned");
  injector.HealAll();
  injector.ClearAllPolicies();
  cluster.bus().ResetBreakers();
  measure("healed, breakers reset");
  std::printf("%s", rtable.ToString().c_str());

  // --- Recovery: durability tax and crash/restart cost (4 nodes) -----------
  // The WAL append barrier prices every ingest; checkpoints amortise replay;
  // a crashed node restarts from its newest snapshot plus the WAL tail.
  std::printf("%s", eval::Banner("Recovery — WAL ingest, checkpoint, and "
                                 "crash/restart cost (4 nodes)")
                        .c_str());
  const std::string dur_dir =
      "/tmp/wf_bench_recovery_" + std::to_string(seed % 100000);
  std::filesystem::remove_all(dur_dir);
  std::filesystem::create_directories(dur_dir);
  {
    platform::Cluster durable(4);
    WF_CHECK_OK(durable.EnableDurability({dur_dir, 0}));
    durable.DeployMiner([&lex, &patterns] {
      return std::make_unique<platform::AdHocSentimentMinerPlugin>(&lex,
                                                                   &patterns);
    });

    auto t0 = Clock::now();
    platform::BatchIngestor dur_ingestor("crawl", docs);
    size_t stored = platform::IngestAll(dur_ingestor, durable);
    auto t1 = Clock::now();
    durable.MineAndIndexAll();

    auto t2 = Clock::now();
    WF_CHECK_OK(durable.CheckpointAll());
    auto t3 = Clock::now();

    // Land a slice of fresh writes after the checkpoint so the restarted
    // node has a WAL tail to replay, then kill and restart it.
    std::vector<std::pair<std::string, std::string>> tail_docs;
    for (size_t i = 0; i < docs.size() / 4; ++i) {
      tail_docs.emplace_back("tail-" + std::to_string(i), docs[i].second);
    }
    platform::BatchIngestor tail_ingestor("crawl", tail_docs);
    (void)platform::IngestAll(tail_ingestor, durable);

    const size_t victim = 1;
    auto t4 = Clock::now();
    WF_CHECK_OK(durable.CrashNode(victim));
    WF_CHECK_OK(durable.RestartNode(victim));
    auto t5 = Clock::now();

    double ingest_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    double checkpoint_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    double restart_ms =
        std::chrono::duration<double, std::milli>(t5 - t4).count();
    platform::ClusterStats dur_stats = durable.CollectStats();
    uint64_t replayed =
        dur_stats.merged.CounterValue("wal/replayed_records_total");

    eval::TablePrinter dtable({"Entities", "Durable ingest ms",
                               "Checkpoint ms", "Crash+restart ms",
                               "Records replayed"});
    dtable.AddRow({std::to_string(stored),
                   common::StrFormat("%.1f", ingest_ms),
                   common::StrFormat("%.1f", checkpoint_ms),
                   common::StrFormat("%.1f", restart_ms),
                   std::to_string(replayed)});
    std::printf("%s", dtable.ToString().c_str());
    json.AddRow("recovery",
                {bench::Int("entities", stored),
                 bench::Num("durable_ingest_ms", ingest_ms),
                 bench::Num("checkpoint_ms", checkpoint_ms),
                 bench::Num("crash_restart_ms", restart_ms),
                 bench::Int("replayed_records", replayed)});
  }
  std::filesystem::remove_all(dur_dir);

  // Cluster-wide wf_obs roll-up (call/retry/breaker counters, latency
  // histograms) rides along in the JSON for post-hoc analysis.
  platform::ClusterStats stats = cluster.CollectStats();
  json.AddSnapshot("metrics", stats.merged);
  std::string json_path = json.WriteFile();
  if (!json_path.empty()) {
    std::printf("\nMachine-readable results: %s\n", json_path.c_str());
  }
  return 0;
}
