#include "platform/cluster.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace wf::platform {

using ::wf::common::Status;

void ClusterNode::MineAndIndex(MineExecutor* executor) {
  obs::ScopedTimer timer(metrics_.GetHistogram(
      "node/mine_and_index_us", obs::DefaultLatencyBoundsUs(),
      /*timing=*/true));
  // One pass over the shard: the sweep hands each mined entity to the
  // index in sorted-id order, so the index snapshot is a pure function of
  // the shard contents (the in-memory posting layout never depends on how
  // mining was scheduled). The index reads only tokens, so it tokenizes
  // each body rather than rebuilding the miners' full analysis.
  size_t indexed = 0;
  pipeline_.ProcessStore(store_, executor, [this, &indexed](const Entity& e) {
    index_.IndexEntity(e);
    ++indexed;
  });
  metrics_.GetCounter("index/indexed_entities_total")->Add(indexed);
  metrics_.GetGauge("index/vocabulary")
      ->Set(static_cast<int64_t>(index_.vocabulary_size()));
  metrics_.GetGauge("store/entities")->Set(static_cast<int64_t>(store_.size()));
}

std::string ClusterNode::ServiceName(const std::string& suffix) const {
  return common::StrFormat("node/%zu/%s", id_, suffix.c_str());
}

std::string ClusterNode::StatsServiceName() const {
  // Outside the node/ prefix on purpose: query scatters (CallAll("node/"))
  // must not dispatch — or count, or trace — stats traffic.
  return common::StrFormat("wfstats/node/%zu", id_);
}

common::Status ClusterNode::RegisterServices(VinciBus* bus) {
  WF_RETURN_IF_ERROR(bus->RegisterService(
      ServiceName("search"), [this](const std::string& request) {
        std::string term = GetMessageField(request, "term");
        std::string mode = GetMessageField(request, "mode");
        std::vector<std::string> docs;
        if (mode == "phrase") {
          std::vector<std::string> words = common::Split(term, " ");
          docs = index_.Phrase(words);
        } else if (mode == "prefix") {
          docs = index_.Prefix(term);
        } else if (mode == "vocabulary") {
          docs = index_.VocabularyWithPrefix(term);
        } else {
          docs = index_.Term(term);
        }
        std::vector<std::pair<std::string, std::string>> out;
        out.reserve(docs.size());
        for (std::string& d : docs) out.emplace_back("doc", std::move(d));
        return EncodeMessage(out);
      }));
  WF_RETURN_IF_ERROR(bus->RegisterService(
      ServiceName("stats"), [this](const std::string&) {
        return EncodeMessage(
            {{"entities", common::StrFormat("%zu", store_.size())},
             {"vocabulary",
              common::StrFormat("%zu", index_.vocabulary_size())}});
      }));
  WF_RETURN_IF_ERROR(bus->RegisterService(
      ServiceName("fetch"), [this](const std::string& request) {
        // A search scatter's call carries no id, so it gets an empty reply
        // without touching the store.
        std::vector<std::pair<std::string, std::string>> out;
        for (const std::string& id : GetMessageFields(request, "id")) {
          auto record = store_.GetRecord(id);
          if (record.ok()) out.emplace_back("entity", std::move(*record));
        }
        return EncodeMessage(out);
      }));
  WF_RETURN_IF_ERROR(bus->RegisterService(
      StatsServiceName(), [this](const std::string& request) {
        std::string format = GetMessageField(request, "format");
        obs::MetricsSnapshot snapshot = metrics_.Snapshot();
        std::string payload;
        if (format == "json") {
          payload = snapshot.ExportJson();
        } else if (format == "text") {
          payload = snapshot.ExportText();
        } else {
          format = "wire";
          payload = snapshot.ToWire();
        }
        return EncodeMessage({{"node", common::StrFormat("%zu", id_)},
                              {"format", format},
                              {"stats", payload}});
      }));
  return Status::Ok();
}

void ClusterNode::UnregisterServices(VinciBus* bus) {
  // Ignore NotFound: crashing an already-deregistered node must be benign.
  (void)bus->UnregisterService(ServiceName("search"));
  (void)bus->UnregisterService(ServiceName("stats"));
  (void)bus->UnregisterService(ServiceName("fetch"));
  (void)bus->UnregisterService(StatsServiceName());
}

common::Status ClusterNode::EnableDurability(
    const std::string& dir, common::StorageFaultInjector* injector,
    uint64_t checkpoint_every_appends, const store::LsmOptions& lsm_options) {
  common::MutexLock lock(dur_mu_);
  if (wal_.is_open()) {
    return Status::FailedPrecondition("durability already enabled");
  }
  injector_ = injector;
  checkpoint_every_appends_ = checkpoint_every_appends;
  appends_since_checkpoint_ = 0;
  // Segment tiers first: opening them loads every checkpointed record and
  // posting from the manifests (or starts empty in a fresh directory), and
  // a corrupt segment must fail enablement rather than load silently
  // wrong. The WAL opens last, so durable() implies the whole stack is up.
  WF_RETURN_IF_ERROR(store_.EnableSegments(
      dir, common::StrFormat("node-%zu.store", id_), lsm_options, injector));
  WF_RETURN_IF_ERROR(index_.EnableSegments(
      dir, common::StrFormat("node-%zu.idx", id_), injector,
      lsm_options.compaction_fanout));
  return wal_.Open(common::StrFormat("%s/node-%zu.wal", dir.c_str(), id_),
                   injector);
}

common::Status ClusterNode::Ingest(Entity entity) {
  if (!wal_.is_open()) return store_.Put(entity);
  common::MutexLock lock(dur_mu_);
  // The duplicate check holds the lock up to the append: two racing ingests
  // of one id must not both reach the log, or recovery would replay the
  // refused record over the acked one.
  if (store_.Contains(entity.id())) {
    return Status::AlreadyExists("entity exists: " + entity.id());
  }
  // Log-then-store: the WAL append is the ack barrier. If it fails the
  // write was never acked, so the store must not accept it either. The
  // log and the store hold the same record, encoded once.
  const std::string record = entity.EncodeRecord();
  const uint64_t acked_before = wal_.acked_bytes();
  Status logged = wal_.Append(record);
  if (!logged.ok()) {
    metrics_.GetCounter("wal/append_failures_total")->Add(1);
    return logged;
  }
  metrics_.GetCounter("wal/appends_total")->Add(1);
  metrics_.GetCounter("wal/bytes_written_total")
      ->Add(wal_.acked_bytes() - acked_before);
  WF_RETURN_IF_ERROR(store_.PutRecord(entity.id(), record));
  if (checkpoint_every_appends_ > 0 &&
      ++appends_since_checkpoint_ >= checkpoint_every_appends_) {
    // Best effort: the write is already durable in the WAL, so a failed
    // auto-checkpoint is counted but does not fail the acked ingest.
    if (!CheckpointLocked().ok()) {
      metrics_.GetCounter("wal/checkpoint_failures_total")->Add(1);
    }
  }
  return Status::Ok();
}

common::Status ClusterNode::Checkpoint() {
  common::MutexLock lock(dur_mu_);
  return CheckpointLocked();
}

common::Status ClusterNode::CheckpointLocked() {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition("durability not enabled");
  }
  obs::ScopedTimer timer(metrics_.GetHistogram(
      "wal/checkpoint_us", obs::DefaultLatencyBoundsUs(), /*timing=*/true));
  // Segment flushes first, WAL truncation last: until Reset() succeeds
  // every acked record is still replayable, so a crash anywhere in here
  // loses nothing (each flush commits through an atomic manifest swap, so
  // recovery sees whichever segment generation the swap left durable).
  WF_RETURN_IF_ERROR(store_.Flush());
  WF_RETURN_IF_ERROR(index_.Freeze());
  WF_RETURN_IF_ERROR(wal_.Reset());
  appends_since_checkpoint_ = 0;
  metrics_.GetCounter("wal/checkpoints_total")->Add(1);
  return Status::Ok();
}

common::Status ClusterNode::Recover() {
  common::MutexLock lock(dur_mu_);
  if (!wal_.is_open()) {
    return Status::FailedPrecondition("durability not enabled");
  }
  obs::ScopedTimer timer(metrics_.GetHistogram(
      "wal/recovery_us", obs::DefaultLatencyBoundsUs(), /*timing=*/true));
  // The checkpointed tiers are already live: EnableDurability loaded every
  // segment run its manifest named. What remains is everything acked
  // since: replay the WAL, stopping cleanly at a torn tail. Upsert keeps
  // replay idempotent over the checkpoint.
  auto replay_or = WriteAheadLog::Replay(wal_.path());
  if (!replay_or.ok()) return replay_or.status();
  const WriteAheadLog::ReplayResult& replay = replay_or.value();
  for (const std::string& record : replay.records) {
    WF_ASSIGN_OR_RETURN(Entity entity, Entity::DecodeRecord(record));
    index_.IndexEntity(entity);
    WF_RETURN_IF_ERROR(store_.Upsert(entity));
  }
  metrics_.GetCounter("wal/replayed_records_total")
      ->Add(replay.records.size());
  if (replay.torn_tail) {
    metrics_.GetCounter("wal/torn_tail_detected_total")->Add(1);
  }
  metrics_.GetGauge("store/entities")
      ->Set(static_cast<int64_t>(store_.size()));
  metrics_.GetGauge("index/vocabulary")
      ->Set(static_cast<int64_t>(index_.vocabulary_size()));
  // Compact immediately: the checkpoint truncates the WAL — discarding
  // any torn tail — before this handle appends behind it.
  return CheckpointLocked();
}

Cluster::Cluster(size_t num_nodes) {
  WF_CHECK(num_nodes > 0);
  bus_.AttachMetrics(&metrics_);
  // Always fed, consulted only by hedged scatters: recording into the
  // scoreboard has no metric footprint, so unhedged clusters keep their
  // deterministic exports (see HealthScoreboard's determinism note).
  bus_.AttachHealth(&health_);
  executor_ = std::make_unique<MineExecutor>(MineExecutorOptions{});
  executor_->AttachMetrics(&metrics_);
  nodes_.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<ClusterNode>(i));
    WF_CHECK_OK(nodes_.back()->RegisterServices(&bus_));
  }
  metrics_.GetGauge("cluster/nodes_up")->Set(static_cast<int64_t>(num_nodes));
}

size_t Cluster::NodesUp() const {
  size_t up = 0;
  for (const auto& node : nodes_) {
    if (node != nullptr) ++up;
  }
  return up;
}

common::Status Cluster::Ingest(Entity entity) {
  size_t shard = Route(entity.id());
  if (nodes_[shard] == nullptr) {
    metrics_.GetCounter("ingest/unavailable_total")->Add(1);
    return Status::Unavailable(
        common::StrFormat("shard %zu is down", shard));
  }
  Status s = nodes_[shard]->Ingest(std::move(entity));
  metrics_.GetCounter(s.ok() ? "ingest/stored_total" : "ingest/rejected_total")
      ->Add(1);
  return s;
}

void Cluster::DeployMiner(
    const std::function<std::unique_ptr<EntityMiner>()>& factory) {
  for (auto& node : nodes_) {
    if (node != nullptr) node->pipeline().AddMiner(factory());
  }
  // Remembered so a restarted node is rebuilt with the same pipeline.
  miner_factories_.push_back(factory);
}

void Cluster::MineAndIndexAll() {
  std::vector<ClusterNode*> up;
  up.reserve(nodes_.size());
  for (auto& node : nodes_) {
    if (node != nullptr) up.push_back(node.get());
  }
  if (up.empty()) return;
  // Nested scatter: the outer ParallelFor dispatches one task per node,
  // and each node's ProcessStore scatters its per-entity batches onto the
  // same pool, so total threads stay bounded by the executor regardless of
  // shard count.
  executor_->ParallelFor(up.size(),
                         [&](size_t i) { up[i]->MineAndIndex(executor_.get()); });
}

void Cluster::ConfigureMining(const MineExecutorOptions& options) {
  executor_ = std::make_unique<MineExecutor>(options);
  executor_->AttachMetrics(&metrics_);
}

common::Status Cluster::EnableDurability(
    const DurabilityOptions& options, common::StorageFaultInjector* injector) {
  if (durable_) return Status::FailedPrecondition("durability already enabled");
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) {
      return Status::FailedPrecondition(
          common::StrFormat("node %zu is down", i));
    }
  }
  durability_ = options;
  injector_ = injector;
  durable_ = true;
  for (auto& node : nodes_) {
    WF_RETURN_IF_ERROR(node->EnableDurability(
        durability_.dir, injector_, durability_.checkpoint_every_appends,
        durability_.lsm));
    // Recover from whatever the directory holds: empty shards for a fresh
    // dir, the previous run's state for an existing one.
    WF_RETURN_IF_ERROR(node->Recover());
  }
  return Status::Ok();
}

common::Status Cluster::CheckpointAll() {
  Status first = Status::Ok();
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    Status s = node->Checkpoint();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

common::Status Cluster::CrashNode(size_t i) {
  if (i >= nodes_.size()) {
    return Status::InvalidArgument(common::StrFormat("no node %zu", i));
  }
  if (nodes_[i] == nullptr) {
    return Status::FailedPrecondition(
        common::StrFormat("node %zu is already down", i));
  }
  // Withdraw the services, then drop the node: everything in memory — the
  // shard, the index, the metrics — is gone, exactly as a power loss
  // would leave it. Only the WAL and checkpoints on disk survive.
  nodes_[i]->UnregisterServices(&bus_);
  nodes_[i].reset();
  metrics_.GetCounter("cluster/node_crashes_total")->Add(1);
  metrics_.GetGauge("cluster/nodes_up")->Set(static_cast<int64_t>(NodesUp()));
  return Status::Ok();
}

common::Status Cluster::RestartNode(size_t i) {
  if (i >= nodes_.size()) {
    return Status::InvalidArgument(common::StrFormat("no node %zu", i));
  }
  if (nodes_[i] != nullptr) {
    return Status::FailedPrecondition(
        common::StrFormat("node %zu is already up", i));
  }
  if (!durable_) {
    return Status::FailedPrecondition(
        "cluster is not durable; nothing to restart from");
  }
  auto node = std::make_unique<ClusterNode>(i);
  WF_RETURN_IF_ERROR(node->EnableDurability(
      durability_.dir, injector_, durability_.checkpoint_every_appends,
      durability_.lsm));
  for (const auto& factory : miner_factories_) {
    node->pipeline().AddMiner(factory());
  }
  // Recover before serving: the node re-registers only once its shard is
  // rebuilt from the newest checkpoint + WAL replay.
  WF_RETURN_IF_ERROR(node->Recover());
  WF_RETURN_IF_ERROR(node->RegisterServices(&bus_));
  nodes_[i] = std::move(node);
  metrics_.GetCounter("cluster/node_restarts_total")->Add(1);
  metrics_.GetGauge("cluster/nodes_up")->Set(static_cast<int64_t>(NodesUp()));
  return Status::Ok();
}

namespace {

// Gathers a scatter over the node search services into a SearchResult,
// tolerating per-node failures (the degraded shard is recorded, not fatal).
SearchResult GatherSearch(
    const std::vector<std::pair<std::string, common::Result<std::string>>>&
        scattered) {
  SearchResult result;
  std::set<std::string> docs;
  for (const auto& [service, response] : scattered) {
    if (!common::EndsWith(service, "/search")) continue;
    ++result.nodes_total;
    if (!response.ok()) {
      result.failed_services.push_back(service);
      continue;
    }
    ++result.nodes_responded;
    for (std::string& d : GetMessageFields(*response, "doc")) {
      docs.insert(std::move(d));
    }
  }
  result.docs.assign(docs.begin(), docs.end());
  return result;
}

}  // namespace

template <typename ResultT>
void Cluster::AccountDownNodes(
    const std::function<std::string(size_t)>& service_name,
    ResultT* result) const {
  // A down node's services are deregistered, so the scatter never saw
  // them — but a 4-shard cluster answering from 3 shards is a partial
  // answer and must report itself as one.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] != nullptr) continue;
    ++result->nodes_total;
    result->failed_services.push_back(service_name(i));
  }
}

SearchResult Cluster::TracedSearch(
    const std::string& name,
    std::vector<std::pair<std::string, std::string>> request_fields,
    const Deadline& deadline) const {
  // With a tracer attached, the query gets a root span whose context rides
  // the scattered request; the bus then records one child span per target,
  // stitching the fan-out into a single trace.
  obs::Span root;
  if (tracer_ != nullptr) {
    root = tracer_->StartTrace(name);
    obs::AppendContext(root.context(), &request_fields);
  }
  metrics_.GetCounter("cluster/searches_total")->Add(1);
  SearchResult result;
  if (!deadline.infinite() && deadline.expired()) {
    // Fail every shard up front: the caller's budget is spent, so nothing
    // may be scattered — the whole point of propagating the deadline is
    // that zero downstream work runs past it.
    metrics_.GetCounter("cluster/deadline_expired_searches_total")->Add(1);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i] == nullptr) continue;
      ++result.nodes_total;
      result.failed_services.push_back(
          common::StrFormat("node/%zu/search", i));
    }
  } else {
    // The absolute expiry rides the request (servers gate on it) and also
    // caps each per-node call from this side, so a shard that never answers
    // costs at most the remaining budget, not an unbounded wait.
    AppendDeadline(deadline, &request_fields);
    CallOptions options;
    options.deadline_us = deadline.CallBudgetUs();
    // Hedged when enabled: a straggling shard is re-issued once at its
    // health-derived ~p95 (clamped to the deadline) and a suspect shard is
    // abandoned early. GatherSearch unions docs into a set, so the answer
    // bytes cannot depend on which copy of a shard's response won.
    const std::string request = EncodeMessage(request_fields);
    result = GatherSearch(bus_.CallAll("node/", request, options, hedge_));
  }
  AccountDownNodes(
      [](size_t i) { return common::StrFormat("node/%zu/search", i); },
      &result);
  if (!result.complete()) {
    metrics_.GetCounter("cluster/partial_searches_total")->Add(1);
  }
  if (root.active()) {
    root.SetAttr("nodes_total",
                 common::StrFormat("%zu", result.nodes_total));
    root.SetAttr("nodes_responded",
                 common::StrFormat("%zu", result.nodes_responded));
  }
  return result;
}

SearchResult Cluster::Search(const std::string& term,
                             const Deadline& deadline) const {
  return TracedSearch("cluster/search", {{"term", term}}, deadline);
}

SearchResult Cluster::SearchPhrase(const std::vector<std::string>& words,
                                   const Deadline& deadline) const {
  return TracedSearch("cluster/search_phrase",
                      {{"term", common::Join(words, " ")}, {"mode", "phrase"}},
                      deadline);
}

SearchResult Cluster::Vocabulary(const std::string& prefix) const {
  return TracedSearch("cluster/vocabulary",
                      {{"term", prefix}, {"mode", "vocabulary"}}, Deadline());
}

ClusterStats Cluster::CollectStats() const {
  ClusterStats stats;
  // Health gauges join the roll-up only while hedging is on: they are
  // wall-clock-fed, and publishing them unconditionally would break the
  // byte-identical deterministic exports unhedged clusters promise.
  if (hedge_.enabled) health_.Publish(&metrics_);
  // Snapshot the local (bus-level) registry before the gather so the
  // roll-up's own wfstats calls are not half-counted inside it.
  stats.merged = metrics_.Snapshot();
  std::string request = EncodeMessage({{"format", "wire"}});
  for (const auto& [service, response] : bus_.CallAll("wfstats/", request)) {
    ++stats.nodes_total;
    if (!response.ok()) {
      stats.failed_services.push_back(service);
      continue;
    }
    std::string wire = GetMessageField(*response, "stats");
    auto snapshot = obs::MetricsSnapshot::FromWire(wire);
    if (!snapshot.ok() || !stats.merged.MergeFrom(*snapshot).ok()) {
      stats.failed_services.push_back(service);
      continue;
    }
    ++stats.nodes_responded;
  }
  AccountDownNodes(
      [](size_t i) { return common::StrFormat("wfstats/node/%zu", i); },
      &stats);
  return stats;
}

size_t Cluster::TotalEntities() const {
  size_t total = 0;
  for (const auto& node : nodes_) {
    if (node != nullptr) total += node->store().size();
  }
  return total;
}

}  // namespace wf::platform
