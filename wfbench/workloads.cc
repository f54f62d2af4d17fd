#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "common/arena.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/analysis.h"
#include "corpus/domain.h"
#include "corpus/web_gen.h"
#include "gates.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "loops.h"
#include "parse/sentence_structure.h"
#include "platform/cluster.h"
#include "platform/data_store.h"
#include "platform/indexer.h"
#include "platform/query_service.h"
#include "platform/sentiment_miner_plugin.h"
#include "pos/tagger.h"
#include "serve/front_door.h"
#include "spans.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace wfbench {
namespace {

using wf::common::Status;
using wf::platform::Cluster;
using wf::platform::Entity;
using wf::platform::EntityMiner;
using wf::platform::MineContext;

// Half petroleum, half pharma web pages: 12,288 entities, three times a
// node's 4,096-entry analysis cache, so a one-node sweep overflows it.
constexpr size_t kDocsPerDomain = 6144;
// Set-up runs this many times per run; setup_s is the median.
constexpr size_t kSetupRepetitions = 3;
// Open-loop arrival rate, frozen as a workload input: about half the
// uncached closed-loop capacity (800-1,000 queries/s) every workload
// measured on a 4-core host when the benchmark was written.
constexpr double kOpenRateQps = 400.0;

// A traffic mix. A request asks for a unique subject nobody mentions with
// probability `no_hit_share`; otherwise, with probability `hot_share`, one
// of the first `hot_count` known subjects; otherwise any known subject.
struct Mix {
  double no_hit_share = 0.0;
  double hot_share = 0.0;
  size_t hot_count = 0;
};
// Ad-hoc analysts: any subject, a third of them unknown to the corpus.
constexpr Mix kAnalystMix{1.0 / 3.0, 0.0, 0};
// Dashboards: the load generator's skew, most traffic on two subjects.
constexpr Mix kDashboardMix{0.15, 0.7, 2};

// Every workload runs the whole system: set-up, the Mode-B mining pass,
// then three query phases through serve::FrontDoor. What differs is the
// shard layout and the traffic mix, which decide the layer that dominates.
struct Spec {
  const char* name;
  size_t nodes;
  // True: the mining pass is the run's timed region, after set-up.
  // False: it belongs to set-up, which builds the serving cluster.
  bool mining_timed;
  Mix mix;
  // Shares of --seconds for the three query phases.
  double closed_share;
  double open_share;
  double hot_share;
};

constexpr Spec kSpecs[] = {
    {"mine_shard", 1, true, kAnalystMix, 0.3, 0.35, 0.35},
    {"query_uncached", 4, false, kAnalystMix, 0.4, 0.35, 0.25},
    {"query_hot", 4, false, kDashboardMix, 0.25, 0.35, 0.4},
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Share(size_t part, size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

size_t Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Bytes this process passed to write(2) so far (/proc/self/io wchar);
// counted whatever the filesystem underneath does with them.
uint64_t WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

// --- Corpus and set-up -------------------------------------------------------

struct Doc {
  std::string id;
  std::string body;
};

std::vector<Doc> GenerateCorpus(uint64_t seed) {
  std::vector<Doc> docs;
  docs.reserve(2 * kDocsPerDomain);
  uint64_t stream = 1;
  for (const wf::corpus::DomainVocab* domain :
       {&wf::corpus::PetroleumDomain(), &wf::corpus::PharmaDomain()}) {
    for (wf::corpus::GeneratedDoc& d : wf::corpus::GenerateWebDocs(
             *domain, kDocsPerDomain, wf::common::HashCombine(seed, stream++),
             wf::corpus::WebGenOptions{})) {
      docs.push_back({std::move(d.id), std::move(d.body)});
    }
  }
  return docs;
}

// Shared by every node's ProbedMiner.
struct MinerProbe {
  SpanLog* log = nullptr;
  std::atomic<uint64_t> sweep_span{0};  // parent of the miner spans
  std::atomic<uint64_t> errors{0};
};

// Pass-through EntityMiner: forwards every call to the wrapped miner,
// counts failed calls, and in a traced run records one span per call.
class ProbedMiner : public EntityMiner {
 public:
  ProbedMiner(std::unique_ptr<EntityMiner> inner, MinerProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  Status Process(Entity& entity) override {
    ScopedSpan span(probe_->log, "core.sentiment_miner",
                    probe_->sweep_span.load(),
                    wf::common::Fnv1a64(entity.id()));
    return Counted(inner_->Process(entity));
  }
  Status Process(Entity& entity, const MineContext& context) override {
    ScopedSpan span(probe_->log, "core.sentiment_miner",
                    probe_->sweep_span.load(),
                    wf::common::Fnv1a64(entity.id()));
    return Counted(inner_->Process(entity, context));
  }
  bool wants_analysis() const override { return inner_->wants_analysis(); }
  bool parallel_safe() const override { return inner_->parallel_safe(); }

 private:
  Status Counted(Status status) {
    if (!status.ok()) probe_->errors.fetch_add(1);
    return status;
  }

  std::unique_ptr<EntityMiner> inner_;
  MinerProbe* probe_;
};

struct MiningPass {
  double sweep_s = 0.0;       // MineAndIndexAll
  double checkpoint_s = 0.0;  // CheckpointAll
  uint64_t sweep_span = 0;
  uint64_t written_bytes = 0;
  wf::obs::MetricsSnapshot before;
  wf::obs::MetricsSnapshot after;
};

// The paper's offline pass: mine and index every shard, then checkpoint.
Status MineAndCheckpoint(Cluster& cluster, MinerProbe& probe, SpanLog& log,
                         MiningPass* pass) {
  if (log.enabled()) pass->before = cluster.CollectStats().merged;
  const uint64_t written0 = WrittenBytes();
  const int64_t t0 = NowNs();
  {
    ScopedSpan sweep(&log, "platform.mine_and_index_all");
    pass->sweep_span = sweep.id();
    probe.sweep_span.store(sweep.id());
    cluster.MineAndIndexAll();
  }
  const int64_t t1 = NowNs();
  Status checkpointed = Status::Ok();
  {
    ScopedSpan checkpoint(&log, "platform.checkpoint_all");
    checkpointed = cluster.CheckpointAll();
  }
  const int64_t t2 = NowNs();
  pass->written_bytes = WrittenBytes() - written0;
  pass->sweep_s = Seconds(t1 - t0);
  pass->checkpoint_s = Seconds(t2 - t1);
  if (log.enabled()) pass->after = cluster.CollectStats().merged;
  return checkpointed;
}

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::string dir;
  double generate_s = 0.0;
  double ingest_s = 0.0;
  double total_s = 0.0;
  MiningPass mining;  // filled in set-up unless the spec times mining
};

// Generates the corpus, ingests it WAL-acked into a fresh durable cluster,
// and (for the query workloads) mines, indexes and checkpoints it.
Status SetUp(const Spec& spec, uint64_t seed, const std::string& dir,
             const wf::lexicon::SentimentLexicon& lexicon,
             const wf::lexicon::PatternDatabase& patterns, MinerProbe& probe,
             SpanLog& log, size_t mining_workers, Deployment* out) {
  ScopedSpan setup_span(&log, "setup");
  probe.errors.store(0);  // count the errors of this deployment's pass only
  const int64_t t0 = NowNs();
  std::vector<Doc> docs;
  {
    ScopedSpan span(&log, "setup.generate", setup_span.id());
    docs = GenerateCorpus(seed);
  }
  const int64_t t1 = NowNs();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  out->dir = dir;
  out->cluster = std::make_unique<Cluster>(spec.nodes);
  Cluster& cluster = *out->cluster;
  {
    ScopedSpan span(&log, "setup.ingest", setup_span.id());
    WF_RETURN_IF_ERROR(cluster.EnableDurability({dir, 0, {}}));
    cluster.ConfigureMining(
        wf::platform::MineExecutorOptions{.threads = mining_workers});
    cluster.DeployMiner([&lexicon, &patterns, &probe] {
      return std::make_unique<ProbedMiner>(
          std::make_unique<wf::platform::AdHocSentimentMinerPlugin>(
              &lexicon, &patterns),
          &probe);
    });
    for (Doc& d : docs) {
      Entity entity(std::move(d.id), "crawl");
      entity.SetBody(std::move(d.body));
      WF_RETURN_IF_ERROR(cluster.Ingest(std::move(entity)));
    }
  }
  const int64_t t2 = NowNs();
  if (!spec.mining_timed) {
    ScopedSpan span(&log, "setup.mine", setup_span.id());
    WF_RETURN_IF_ERROR(MineAndCheckpoint(cluster, probe, log, &out->mining));
  }
  out->generate_s = Seconds(t1 - t0);
  out->ingest_s = Seconds(t2 - t1);
  out->total_s = Seconds(NowNs() - t0);
  return Status::Ok();
}

void TearDown(Deployment* deployment) {
  deployment->cluster.reset();
  std::error_code ec;
  if (!deployment->dir.empty()) {
    std::filesystem::remove_all(deployment->dir, ec);
  }
}

// --- Answer gates -----------------------------------------------------------

std::vector<std::string> MineGate(
    Cluster& cluster, const wf::platform::SentimentQueryService& service,
    const wf::lexicon::SentimentLexicon& lexicon,
    const wf::lexicon::PatternDatabase& patterns,
    const std::vector<std::string>& subjects, uint64_t miner_errors) {
  wf::platform::RuntimeSentimentQueryService runtime(&cluster, &lexicon,
                                                     &patterns);
  SubjectCounts offline, at_runtime;
  for (const std::string& subject : subjects) {
    wf::platform::SentimentQueryResult a = service.Query(subject);
    wf::platform::SentimentQueryResult b = runtime.Query(subject);
    offline[subject] = {a.positive_docs, a.negative_docs};
    at_runtime[subject] = {b.positive_docs, b.negative_docs};
  }
  return CheckMineAgreement(offline, at_runtime, miner_errors);
}

// --- Query phases -----------------------------------------------------------

// Per-worker tallies of what the front door answered.
struct Tally {
  size_t requests = 0;
  size_t no_hit = 0;
  size_t cache_hits = 0;
  size_t coalesced = 0;
  size_t shed = 0;
  size_t mismatches = 0;
  std::vector<int64_t> queue_wait_us;
};

Tally Sum(const std::vector<Tally>& tallies) {
  Tally total;
  for (const Tally& t : tallies) {
    total.requests += t.requests;
    total.no_hit += t.no_hit;
    total.cache_hits += t.cache_hits;
    total.coalesced += t.coalesced;
    total.shed += t.shed;
    total.mismatches += t.mismatches;
    total.queue_wait_us.insert(total.queue_wait_us.end(),
                               t.queue_wait_us.begin(), t.queue_wait_us.end());
  }
  return total;
}

struct Phase {
  const char* name = "";  // a literal: also the phase's span name
  uint64_t span = 0;
  Budget budget;
  LoopResult loop;
  Tally tally;
};

// Draws request subjects for one stream of requests.
class SubjectSource {
 public:
  SubjectSource(const Mix& mix, const std::vector<std::string>& subjects,
                uint64_t seed, std::string cold_prefix)
      : mix_(mix),
        subjects_(&subjects),
        rng_(seed),
        cold_prefix_(std::move(cold_prefix)) {}

  // Returns the subject; *no_hit tells whether it is a unique unknown one.
  std::string Next(bool* no_hit) {
    const size_t n = drawn_++;
    *no_hit = rng_.Bernoulli(mix_.no_hit_share);
    if (*no_hit) return cold_prefix_ + std::to_string(n);
    if (mix_.hot_count > 0 && rng_.Bernoulli(mix_.hot_share)) {
      return (*subjects_)[rng_.Index(
          std::min(mix_.hot_count, subjects_->size()))];
    }
    return (*subjects_)[rng_.Index(subjects_->size())];
  }

 private:
  Mix mix_;
  const std::vector<std::string>* subjects_;
  wf::common::Rng rng_;
  std::string cold_prefix_;
  size_t drawn_ = 0;
};

wf::serve::QueryRequest Request(const std::string& subject) {
  wf::serve::QueryRequest request;
  request.subject = subject;
  return request;
}

bool Serve(wf::serve::FrontDoor& door, const PayloadGate& gate,
           const std::string& subject, bool no_hit, Tally& tally,
           SpanLog* log, uint64_t phase_span, uint64_t request_id) {
  wf::serve::QueryReply reply;
  {
    ScopedSpan span(log, "serve.front_door", phase_span, request_id);
    reply = door.Query(Request(subject));
  }
  ++tally.requests;
  if (no_hit) ++tally.no_hit;
  tally.queue_wait_us.push_back(static_cast<int64_t>(reply.queue_wait_us));
  if (reply.cache_hit) ++tally.cache_hits;
  if (reply.coalesced) ++tally.coalesced;
  if (reply.shed_reason != wf::serve::ShedReason::kNone) {
    ++tally.shed;
    return true;
  }
  if (!reply.status.ok()) return true;
  if (!gate.Check(subject, reply.payload)) {
    ++tally.mismatches;
    return true;
  }
  return false;
}

wf::serve::FrontDoorOptions UncachedDoor() {
  wf::serve::FrontDoorOptions options;
  options.cache_entries = 0;
  return options;
}

Phase ClosedPhase(const char* name, wf::serve::FrontDoor& door,
                  const PayloadGate& gate, const Mix& mix,
                  const std::vector<std::string>& subjects, uint64_t seed,
                  size_t clients, const Budget& budget, SpanLog* log) {
  std::vector<SubjectSource> sources;
  for (size_t c = 0; c < clients; ++c) {
    sources.emplace_back(mix, subjects, wf::common::HashCombine(seed, c),
                         wf::common::StrFormat("cold-%s-%zu-", name, c));
  }
  std::vector<Tally> tallies(clients);
  Phase phase;
  phase.name = name;
  phase.budget = budget;
  ScopedSpan phase_span(log, name);
  phase.span = phase_span.id();
  phase.loop = RunClosedLoop(clients, budget, [&](size_t c, size_t seq) {
    bool no_hit = false;
    const std::string subject = sources[c].Next(&no_hit);
    return Serve(door, gate, subject, no_hit, tallies[c], log, phase.span,
                 (static_cast<uint64_t>(c) << 40) | seq);
  });
  phase.tally = Sum(tallies);
  return phase;
}

Phase OpenPhase(const char* name, wf::serve::FrontDoor& door,
                const PayloadGate& gate, const Mix& mix,
                const std::vector<std::string>& subjects, uint64_t seed,
                size_t workers, double rate_qps, const Budget& budget,
                SpanLog* log) {
  const std::vector<int64_t> due = PoissonSchedule(
      rate_qps,
      static_cast<int64_t>(kWarmupWindows + budget.max_windows) * kWindowNs,
      wf::common::HashCombine(seed, 1));
  SubjectSource source(mix, subjects, wf::common::HashCombine(seed, 2),
                       wf::common::StrFormat("cold-%s-", name));
  std::vector<std::pair<std::string, bool>> requests(due.size());
  for (auto& [subject, no_hit] : requests) subject = source.Next(&no_hit);
  std::vector<Tally> tallies(workers);
  Phase phase;
  phase.name = name;
  phase.budget = budget;
  ScopedSpan phase_span(log, name);
  phase.span = phase_span.id();
  phase.loop = RunOpenLoop(due, workers, budget, [&](size_t w, size_t i) {
    return Serve(door, gate, requests[i].first, requests[i].second,
                 tallies[w], log, phase.span, i);
  });
  phase.tally = Sum(tallies);
  return phase;
}

// A phase that should measure `share` of `seconds` on a quiet host, and
// may run half as long again to find that much quiet time on a busy one.
Budget PhaseBudget(double share, double seconds) {
  const size_t quiet = std::max<size_t>(
      1, static_cast<size_t>(std::lround(share * seconds * 1e9 /
                                         static_cast<double>(kWindowNs))));
  return {quiet, quiet + (quiet + 1) / 2};
}

QuietFigures Summarize(const Phase& phase) {
  return Quietest(phase.loop, phase.budget.quiet_windows);
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  return wf::common::StrFormat("%.10g", v);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

// --- Layer replays (traced run) ---------------------------------------------

// Per-document cost of each front-half stage, replayed over every body.
void ReplayStages(const std::vector<Doc>& docs, std::vector<Metric>* out) {
  const wf::text::Tokenizer tokenizer;
  const wf::text::SentenceSplitter splitter;
  const wf::pos::PosTagger tagger;
  const wf::parse::SentenceAnalyzer analyzer;
  int64_t tokenize = 0, split = 0, tag = 0, clauses = 0, analyze = 0;
  size_t sink = 0;
  for (const Doc& d : docs) {
    const int64_t t0 = NowNs();
    wf::text::TokenStream tokens = tokenizer.Tokenize(d.body);
    const int64_t t1 = NowNs();
    std::vector<wf::text::SentenceSpan> sentences = splitter.Split(tokens);
    const int64_t t2 = NowNs();
    std::vector<std::vector<wf::pos::PosTag>> tags;
    tags.reserve(sentences.size());
    for (const wf::text::SentenceSpan& s : sentences) {
      tags.push_back(tagger.TagSentence(tokens, s));
    }
    const int64_t t3 = NowNs();
    wf::common::Arena arena;
    wf::common::StringInterner interner(&arena);
    for (size_t s = 0; s < sentences.size(); ++s) {
      sink += analyzer.AnalyzeClauses(tokens, sentences[s], tags[s], &interner)
                  .size();
    }
    const int64_t t4 = NowNs();
    sink += wf::core::AnalyzeDocument(d.body)->tokens.size();
    const int64_t t5 = NowNs();
    tokenize += t1 - t0;
    split += t2 - t1;
    tag += t3 - t2;
    clauses += t4 - t3;
    analyze += t5 - t4;
  }
  if (sink == 0) std::fprintf(stderr, "wfbench: empty stage replay\n");
  const double n = static_cast<double>(std::max<size_t>(1, docs.size()));
  out->push_back({"text.tokenize_us_per_doc", Micros(tokenize) / n, "us"});
  out->push_back({"text.split_us_per_doc", Micros(split) / n, "us"});
  out->push_back({"pos.tag_us_per_doc", Micros(tag) / n, "us"});
  out->push_back({"parse.clauses_us_per_doc", Micros(clauses) / n, "us"});
  out->push_back({"core.analyze_us_per_doc", Micros(analyze) / n, "us"});
}

// Fetches node 0's mined entities over the bus, in sorted-id order.
std::vector<Entity> FetchShard(Cluster& cluster, const std::vector<Doc>& docs) {
  std::vector<std::string> ids;
  for (const Doc& d : docs) {
    if (cluster.Route(d.id) == 0) ids.push_back(d.id);
  }
  std::sort(ids.begin(), ids.end());
  std::vector<Entity> entities;
  entities.reserve(ids.size());
  for (const std::string& id : ids) {
    auto reply = cluster.bus().Call("node/0/fetch",
                                    wf::platform::EncodeMessage({{"id", id}}));
    if (!reply.ok()) continue;
    auto entity = Entity::Deserialize(
        wf::platform::GetMessageField(*reply, "entity"));
    if (entity.ok()) entities.push_back(std::move(*entity));
  }
  return entities;
}

// Indexing and store commits, replayed over one shard's mined entities.
Status ReplayShard(const std::vector<Entity>& entities, const std::string& dir,
                   std::vector<Metric>* out) {
  const wf::text::Tokenizer tokenizer;
  wf::platform::InvertedIndex index;
  std::vector<int64_t> index_ns;
  index_ns.reserve(entities.size());
  for (const Entity& e : entities) {
    const wf::text::TokenStream tokens = tokenizer.Tokenize(e.body());
    const int64_t t0 = NowNs();
    index.IndexEntity(e, tokens);
    index_ns.push_back(NowNs() - t0);
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  wf::platform::DataStore store;
  WF_RETURN_IF_ERROR(store.EnableSegments(dir, "replay"));
  int64_t upsert_ns = 0;
  for (const Entity& e : entities) {
    Entity copy = e;
    const int64_t t0 = NowNs();
    WF_RETURN_IF_ERROR(store.Upsert(std::move(copy)));
    upsert_ns += NowNs() - t0;
  }
  std::filesystem::remove_all(dir, ec);

  const size_t n = std::max<size_t>(1, index_ns.size());
  const size_t decile = std::max<size_t>(1, n / 10);
  auto mean_us = [&](size_t begin, size_t end) {
    int64_t sum = 0;
    for (size_t i = begin; i < end && i < index_ns.size(); ++i) {
      sum += index_ns[i];
    }
    return Micros(sum) / static_cast<double>(std::max<size_t>(1, end - begin));
  };
  const double first = mean_us(0, decile);
  const double last = mean_us(n - decile, n);
  out->push_back({"platform.index_us_per_doc", mean_us(0, n), "us"});
  out->push_back(
      {"platform.index_growth_ratio", first > 0 ? last / first : 0.0, "ratio"});
  out->push_back({"platform.store_upsert_us_per_doc",
                  Micros(upsert_ns) / static_cast<double>(n), "us"});
  return Status::Ok();
}

uint64_t VinciCalls(const wf::obs::MetricsSnapshot& snapshot) {
  uint64_t calls = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (wf::common::StartsWith(name, "vinci/calls/") &&
        !wf::common::StartsWith(name, "vinci/calls/wfstats/")) {
      calls += value;
    }
  }
  return calls;
}

// The query path's layers, replayed sequentially on the known subjects and
// the documents their searches return.
void ReplayQueries(Cluster& cluster,
                   const wf::platform::SentimentQueryService& service,
                   const std::vector<std::string>& subjects,
                   std::vector<Metric>* out) {
  constexpr int kRounds = 3;
  int64_t query_ns = 0, search_ns = 0, fetch_ns = 0, get_ns = 0;
  size_t queries = 0, searches = 0, fetches = 0, gets = 0, reply_bytes = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& subject : subjects) {
      const int64_t t0 = NowNs();
      (void)service.Query(subject);
      query_ns += NowNs() - t0;
      ++queries;
    }
  }
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& subject : subjects) {
      const int64_t t0 = NowNs();
      wf::platform::SearchResult found =
          cluster.Search(wf::platform::SentimentConceptToken(
              subject, wf::lexicon::Polarity::kPositive));
      search_ns += NowNs() - t0;
      ++searches;
      for (const std::string& doc : found.docs) {
        const size_t shard = cluster.Route(doc);
        const std::string request = wf::platform::EncodeMessage({{"id", doc}});
        const int64_t t1 = NowNs();
        auto reply = cluster.bus().Call(
            wf::common::StrFormat("node/%zu/fetch", shard), request);
        const int64_t t2 = NowNs();
        auto entity = cluster.node(shard).store().Get(doc);
        const int64_t t3 = NowNs();
        if (reply.ok()) reply_bytes += reply->size();
        fetch_ns += t2 - t1;
        get_ns += t3 - t2;
        ++fetches;
        if (entity.ok()) ++gets;
      }
    }
  }
  auto per = [](int64_t ns, size_t n) {
    return Micros(ns) / static_cast<double>(std::max<size_t>(1, n));
  };
  out->push_back({"platform.query_us", per(query_ns, queries), "us"});
  out->push_back({"platform.search_us", per(search_ns, searches), "us"});
  out->push_back({"platform.fetch_us", per(fetch_ns, fetches), "us"});
  out->push_back({"platform.fetch_reply_bytes",
                  static_cast<double>(reply_bytes) /
                      static_cast<double>(std::max<size_t>(1, fetches)),
                  "bytes"});
  out->push_back({"store.get_us", per(get_ns, gets), "us"});
}

// Bus round trips per uncached query: the change in the vinci/calls/*
// counters over one sequential SentimentQueryService::Query per known
// subject. A count, so it repeats exactly for a given corpus.
double CallsPerQuery(Cluster& cluster,
                     const wf::platform::SentimentQueryService& service,
                     const std::vector<std::string>& subjects) {
  const uint64_t before = VinciCalls(cluster.CollectStats().merged);
  for (const std::string& subject : subjects) (void)service.Query(subject);
  const uint64_t after = VinciCalls(cluster.CollectStats().merged);
  return static_cast<double>(after - before) /
         static_cast<double>(std::max<size_t>(1, subjects.size()));
}

// Mining-pass layers from the spans and counters of one pass.
void MiningLayers(const SpanLog& log, const MiningPass& pass, size_t entities,
                  std::vector<Metric>* out) {
  const double n = static_cast<double>(std::max<size_t>(1, entities));
  std::vector<SpanRecord> sweeps = log.Named("platform.mine_and_index_all");
  SpanRecord sweep;
  for (const SpanRecord& s : sweeps) {
    if (s.id == pass.sweep_span) sweep = s;
  }
  std::vector<SpanRecord> miners = log.ChildrenOf(pass.sweep_span);
  int64_t busy = 0;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const SpanRecord& m : miners) {
    busy += m.duration_ns();
    intervals.emplace_back(m.start_ns, m.end_ns);
  }
  const int64_t covered =
      UnionNs(std::move(intervals), sweep.start_ns, sweep.end_ns);
  out->push_back({"core.sentiment_miner_us_per_doc",
                  Micros(busy) / static_cast<double>(
                                     std::max<size_t>(1, miners.size())),
                  "us"});
  out->push_back({"platform.miner_concurrency",
                  covered > 0 ? static_cast<double>(busy) /
                                    static_cast<double>(covered)
                              : 0.0,
                  "threads"});
  out->push_back({"platform.sweep_self_us_per_doc",
                  Micros(SelfTimeNs(sweep, miners)) / n, "us"});
  out->push_back({"platform.checkpoint_ms", pass.checkpoint_s * 1e3, "ms"});
  auto delta = [&pass](const std::string& name) {
    return static_cast<double>(pass.after.CounterValue(name) -
                               pass.before.CounterValue(name));
  };
  out->push_back({"store.flushes", delta("store/flushes_total"), "count"});
  out->push_back(
      {"store.compactions", delta("store/compactions_total"), "count"});
  const double hits = delta("analysis_cache/hits_total");
  const double misses = delta("analysis_cache/misses_total");
  out->push_back({"core.analysis_cache_hit_share",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"});
}

// --- The run ----------------------------------------------------------------

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& spec : kSpecs) names.emplace_back(spec.name);
  return names;
}

int RunWorkload(const RunOptions& options) {
  const Spec* found = FindSpec(options.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "wfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const Spec& spec = *found;
  const size_t nproc = Nproc();
  const size_t clients = std::max<size_t>(1, nproc - 1);
  auto fail_setup = [](const Status& s) {
    std::fprintf(stderr, "wfbench: set-up failed: %s\n", s.ToString().c_str());
    return 2;
  };

  SpanLog log(options.trace);
  MinerProbe probe;
  probe.log = &log;
  const wf::lexicon::SentimentLexicon lexicon =
      wf::lexicon::SentimentLexicon::Embedded();
  const wf::lexicon::PatternDatabase patterns =
      wf::lexicon::PatternDatabase::Embedded();

  // Set-up, repeated; the last deployment is the one the run measures.
  Deployment deployment;
  std::vector<double> setup_s, generate_s, ingest_s, mine_s,
      written_per_entity;
  for (size_t k = 0; k < kSetupRepetitions; ++k) {
    TearDown(&deployment);
    deployment = Deployment{};
    Status s = SetUp(spec, options.seed,
                     options.work_dir + "/setup-" + std::to_string(k), lexicon,
                     patterns, probe, log, clients, &deployment);
    if (!s.ok()) return fail_setup(s);
    setup_s.push_back(deployment.total_s);
    generate_s.push_back(deployment.generate_s);
    ingest_s.push_back(deployment.ingest_s);
    if (!spec.mining_timed) {
      mine_s.push_back(deployment.mining.sweep_s +
                       deployment.mining.checkpoint_s);
      written_per_entity.push_back(
          static_cast<double>(deployment.mining.written_bytes));
    }
  }
  Cluster& cluster = *deployment.cluster;
  const size_t entities = cluster.TotalEntities();

  if (spec.mining_timed) {
    Status s = MineAndCheckpoint(cluster, probe, log, &deployment.mining);
    if (!s.ok()) return fail_setup(s);
    mine_s.push_back(deployment.mining.sweep_s +
                     deployment.mining.checkpoint_s);
    written_per_entity.push_back(
        static_cast<double>(deployment.mining.written_bytes));
  }
  for (double& w : written_per_entity) w /= static_cast<double>(entities);
  const double mine_entities_per_s =
      static_cast<double>(entities) / Median(mine_s);

  // Answer gate 1: the offline index agrees with query-time mining.
  wf::platform::SentimentQueryService service(&cluster);
  const std::vector<std::string> subjects = service.KnownSubjects();
  std::vector<std::string> violations =
      MineGate(cluster, service, lexicon, patterns, subjects,
               probe.errors.load());
  const double calls_per_query = CallsPerQuery(cluster, service, subjects);

  // The reference pass: each subject's payload, sequentially, cache off.
  std::map<std::string, std::string> reference;
  std::string no_hit_template;
  {
    wf::serve::FrontDoor door(&service, &cluster, UncachedDoor());
    for (const std::string& subject : subjects) {
      wf::serve::QueryReply reply = door.Query(Request(subject));
      if (!reply.status.ok() ||
          wf::platform::GetMessageField(reply.payload, "complete") != "1") {
        violations.push_back("reference pass failed for '" + subject + "'");
      }
      reference[subject] = reply.payload;
    }
    no_hit_template = door.Query(Request("cold-reference")).payload;
  }
  const PayloadGate gate(reference, no_hit_template);

  // Query phases.
  const uint64_t seed = options.seed;
  std::vector<Phase> phases;
  {
    wf::serve::FrontDoor door(&service, &cluster, UncachedDoor());
    phases.push_back(ClosedPhase(
        "uncached_closed", door, gate, spec.mix, subjects,
        wf::common::HashCombine(seed, 11), clients,
        PhaseBudget(spec.closed_share, options.seconds), &log));
  }
  {
    wf::serve::FrontDoor door(&service, &cluster, UncachedDoor());
    phases.push_back(OpenPhase(
        "uncached_open", door, gate, spec.mix, subjects,
        wf::common::HashCombine(seed, 12), clients, kOpenRateQps,
        PhaseBudget(spec.open_share, options.seconds), &log));
  }
  double trace_overhead = 0.0;
  double hot_calls_per_request = 0.0;
  {
    wf::serve::FrontDoor door(&service, &cluster,
                              wf::serve::FrontDoorOptions{});
    for (const std::string& subject : subjects) {
      (void)door.Query(Request(subject));
    }
    const Budget hot_budget = PhaseBudget(spec.hot_share, options.seconds);
    const uint64_t calls_before = VinciCalls(cluster.CollectStats().merged);
    phases.push_back(ClosedPhase("hot", door, gate, spec.mix, subjects,
                                 wf::common::HashCombine(seed, 13), clients,
                                 hot_budget, &log));
    // What the cache and coalescing save: bus round trips per request the
    // default front door served. A count, set by the mix, not the clock.
    hot_calls_per_request =
        static_cast<double>(VinciCalls(cluster.CollectStats().merged) -
                            calls_before) /
        static_cast<double>(std::max<size_t>(1, phases.back().loop.attempted));
    if (options.trace) {
      // Tracing overhead where spans are densest: the hot loop, alternating
      // untraced and traced slices.
      double untraced = 0.0, traced = 0.0;
      for (int slice = 0; slice < 4; ++slice) {
        phases.push_back(ClosedPhase("overhead", door, gate, spec.mix, subjects,
                                     wf::common::HashCombine(seed, 20 + slice),
                                     clients, Budget{2, 4},
                                     slice % 2 == 0 ? nullptr : &log));
        (slice % 2 == 0 ? untraced : traced) +=
            Summarize(phases.back()).per_second;
      }
      trace_overhead = traced > 0 ? untraced / traced - 1.0 : 0.0;
    }
  }

  const Phase& closed = phases[0];
  const Phase& open = phases[1];
  const Phase& hot = phases[2];
  size_t attempted = entities;
  size_t failed = probe.errors.load();
  size_t requests = 0, no_hit = 0;
  for (const Phase& p : phases) {
    attempted += p.loop.attempted;
    failed += p.loop.failed;
    requests += p.tally.requests;
    no_hit += p.tally.no_hit;
    if (p.tally.mismatches > 0) {
      violations.push_back(wf::common::StrFormat(
          "%s: %zu replies differ from the reference pass", p.name,
          p.tally.mismatches));
    }
  }

  // Input properties the layers depend on.
  size_t terms = 0;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    auto stats = cluster.bus().Call(
        wf::common::StrFormat("node/%zu/stats", i), "");
    if (stats.ok()) {
      terms += std::strtoull(
          wf::platform::GetMessageField(*stats, "vocabulary").c_str(), nullptr,
          10);
    }
  }
  std::vector<Doc> docs = GenerateCorpus(seed);
  size_t body_bytes = 0, tokens = 0;
  {
    const wf::text::Tokenizer tokenizer;
    for (const Doc& d : docs) {
      body_bytes += d.body.size();
      tokens += tokenizer.Tokenize(d.body).size();
    }
  }
  const double ndocs = static_cast<double>(std::max<size_t>(1, docs.size()));
  const QuietFigures uncached = Summarize(closed);
  const QuietFigures timed = Summarize(open);
  const QuietFigures cached = Summarize(hot);
  std::string phase_info;
  for (const auto& [phase, figures] :
       {std::pair{&closed, &uncached}, {&open, &timed}, {&hot, &cached}}) {
    phase_info += wf::common::StrFormat(
        "%s\"%s\": {\"requests\": %zu, \"windows\": %zu, \"kept\": %zu, "
        "\"kept_requests\": %zu, \"steal_kept\": %.4f, "
        "\"steal_all\": %.4f}",
        phase_info.empty() ? "" : ", ", phase->name, phase->loop.attempted,
        phase->loop.windows, phase->budget.quiet_windows, figures->samples,
        figures->steal_kept, figures->steal_all);
  }
  std::printf(
      "# run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nodes\": %zu, \"mining_workers\": %zu, "
      "\"clients\": %zu, \"entities\": %zu, \"entities_per_shard\": %.1f, "
      "\"bytes_per_doc\": %.1f, \"tokens_per_doc\": %.1f, "
      "\"index_terms_per_shard\": %.1f, \"subjects_with_hits\": %zu, "
      "\"no_hit_share\": %.4f, \"open_rate_qps\": %g, \"phases\": {%s}}\n",
      spec.name, static_cast<unsigned long long>(seed), options.seconds,
      options.trace ? 1 : 0, nproc, WFBENCH_BUILD_TYPE, WFBENCH_COMPILER,
      spec.nodes, clients, clients, entities,
      static_cast<double>(entities) / static_cast<double>(spec.nodes),
      static_cast<double>(body_bytes) / ndocs,
      static_cast<double>(tokens) / ndocs,
      static_cast<double>(terms) / static_cast<double>(spec.nodes),
      subjects.size(), Share(no_hit, requests), kOpenRateQps,
      phase_info.c_str());

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"bytes_written_per_entity", Median(written_per_entity), "bytes"},
        {"vinci_calls_per_query", calls_per_query, "count"},
        {"hot_vinci_calls_per_request", hot_calls_per_request, "count"},
    };
  } else {
    ReplayStages(docs, &metrics);
    MiningLayers(log, deployment.mining, entities, &metrics);
    Status replayed = ReplayShard(FetchShard(cluster, docs),
                                  options.work_dir + "/replay", &metrics);
    if (!replayed.ok()) return fail_setup(replayed);
    ReplayQueries(cluster, service, subjects, &metrics);
    // Front-door layers: service time and admission wait on the uncached
    // phases, cache and coalescing on the hot phase, shedding everywhere.
    int64_t door_ns = 0;
    size_t door_calls = 0;
    for (const Phase* p : {&closed, &open}) {
      for (const SpanRecord& s : log.ChildrenOf(p->span)) {
        door_ns += s.duration_ns();
        ++door_calls;
      }
    }
    std::vector<int64_t> waits = closed.tally.queue_wait_us;
    waits.insert(waits.end(), open.tally.queue_wait_us.begin(),
                 open.tally.queue_wait_us.end());
    size_t shed = 0;
    for (const Phase& p : phases) shed += p.tally.shed;
    metrics.push_back({"store.bytes_written_per_entity",
                       Median(written_per_entity), "bytes"});
    metrics.push_back({"vinci.calls_per_query", calls_per_query, "count"});
    metrics.push_back({"serve.front_door_us",
                       Micros(door_ns) / static_cast<double>(
                                             std::max<size_t>(1, door_calls)),
                       "us"});
    metrics.push_back({"serve.queue_wait_us_p99",
                       static_cast<double>(Quantile(waits, 0.99)), "us"});
    metrics.push_back({"serve.coalesced_share",
                       Share(hot.tally.coalesced, hot.tally.requests),
                       "ratio"});
    metrics.push_back({"serve.cache_hit_share",
                       Share(hot.tally.cache_hits, hot.tally.requests),
                       "ratio"});
    metrics.push_back({"serve.shed_share", Share(shed, requests), "ratio"});
    // Timings too noisy on a shared host to bound (see README.md):
    // reported here, from the traced run's own mining pass and phases.
    metrics.push_back(
        {"platform.mine_entities_per_s", mine_entities_per_s, "1/s"});
    metrics.push_back({"serve.uncached_cpu_ms_per_query",
                       uncached.cpu_ns_per_request / 1e6, "ms"});
    metrics.push_back({"serve.hot_cpu_us_per_query",
                       cached.cpu_ns_per_request / 1e3, "us"});
    metrics.push_back({"serve.hot_p50_us",
                       static_cast<double>(cached.p50_ns) / 1e3, "us"});
    metrics.push_back(
        {"serve.uncached_capacity_qps", uncached.per_second, "1/s"});
    metrics.push_back({"serve.uncached_p50_ms",
                       static_cast<double>(timed.p50_ns) / 1e6, "ms"});
    metrics.push_back({"serve.uncached_p99_ms",
                       static_cast<double>(timed.p99_ns) / 1e6, "ms"});
    metrics.push_back({"serve.hot_qps", cached.per_second, "1/s"});
    metrics.push_back({"serve.hot_p99_us",
                       static_cast<double>(cached.p99_ns) / 1e3, "us"});
    metrics.push_back({"bench.gen_late_p99_ms",
                       Quantile(open.loop.late_ns, 0.99) / 1e6, "ms"});
    metrics.push_back({"setup.generate_s", Median(generate_s), "s"});
    metrics.push_back({"setup.ingest_s", Median(ingest_s), "s"});
    metrics.push_back({"setup.mine_s", Median(mine_s), "s"});
    metrics.push_back({"bench.trace_overhead_share", trace_overhead, "ratio"});
    if (!options.trace_file.empty()) {
      if (log.WriteTsv(options.trace_file)) {
        std::printf("# trace: %zu spans in %s\n", log.size(),
                    options.trace_file.c_str());
      } else {
        std::fprintf(stderr, "wfbench: cannot write %s\n",
                     options.trace_file.c_str());
      }
    }
  }
  TearDown(&deployment);

  for (const std::string& v : violations) {
    std::printf("# gate failed: %s\n", v.c_str());
  }
  const bool correct = violations.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace wfbench
