#ifndef WF_PLATFORM_CLUSTER_H_
#define WF_PLATFORM_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/logging.h"
#include "common/hash.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "platform/data_store.h"
#include "platform/deadline.h"
#include "platform/health.h"
#include "platform/indexer.h"
#include "platform/mine_executor.h"
#include "platform/miner_framework.h"
#include "platform/vinci.h"
#include "platform/wal.h"

namespace wf::obs {
class Tracer;
}  // namespace wf::obs

namespace wf::platform {

// One node of the simulated shared-nothing cluster: its own data-store
// shard, index shard, and miner pipeline. Other components reach it only
// through its Vinci services:
//   node/<id>/search   request: term=<t> [mode=term|phrase|prefix|vocabulary]
//                      response: doc=<id> per hit (mode=vocabulary:
//                      doc=<term> per index term starting with <t>)
//   node/<id>/stats    response: entities=<n>, vocabulary=<n>
//   node/<id>/fetch    request: id=<doc> per entity
//                      response: entity=<record> per id the node holds,
//                      in request order: the Entity::EncodeRecord bytes
//                      its store holds (no id: empty reply)
//   wfstats/node/<id>  request: [format=wire|text|json]
//                      response: node=<id>, format=<f>, stats=<export>
// (wfstats lives outside the node/ prefix so query scatters never hit it.)
class ClusterNode {
 public:
  explicit ClusterNode(size_t id) : id_(id) {
    pipeline_.AttachMetrics(&metrics_);
    store_.AttachMetrics(&metrics_);
    index_.AttachMetrics(&metrics_);
  }
  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  size_t id() const { return id_; }
  DataStore& store() { return store_; }
  const DataStore& store() const { return store_; }
  InvertedIndex& index() { return index_; }
  const InvertedIndex& index() const { return index_; }
  MinerPipeline& pipeline() { return pipeline_; }
  // This node's private registry (shared-nothing: shards never share
  // metrics; roll-ups go through Cluster::CollectStats over the bus).
  obs::MetricsRegistry& metrics() { return metrics_; }

  // Runs the miner pipeline over the shard, then (re)indexes every entity
  // in sorted-id order (deterministic sweep, DESIGN.md §10). With an
  // executor, per-entity mining is scheduled across its workers; output is
  // byte-identical to the sequential sweep.
  void MineAndIndex(MineExecutor* executor = nullptr);

  // Registers this node's services on the bus.
  common::Status RegisterServices(VinciBus* bus);
  // Withdraws them (node crash / decommission). Missing registrations are
  // ignored so a double-crash is harmless.
  void UnregisterServices(VinciBus* bus);

  std::string ServiceName(const std::string& suffix) const;
  // The node's live-stats service, outside the node/ scatter prefix.
  std::string StatsServiceName() const;

  // --- Durability ---------------------------------------------------------
  // Opens the node's write-ahead log under `dir` (node-<id>.wal) and
  // switches the store and index to segment mode there (node-<id>.store*
  // and node-<id>.idx* segment runs + manifests, DESIGN.md §13), loading
  // whatever segments the directory already holds. Once enabled, Ingest()
  // appends to the WAL before acking, and every `checkpoint_every_appends`
  // acked writes trigger an automatic checkpoint (0 = manual only).
  // `lsm_options` shapes the store's memtable ceiling and both tiers'
  // compaction. `injector` (optional) threads storage fault injection
  // through every byte this node writes; it must outlive the node.
  common::Status EnableDurability(
      const std::string& dir, common::StorageFaultInjector* injector = nullptr,
      uint64_t checkpoint_every_appends = 0,
      const store::LsmOptions& lsm_options = {});
  bool durable() const {
    common::MutexLock lock(dur_mu_);
    return wal_.is_open();
  }

  // Durable write: the entity's binary record (Entity::EncodeRecord) is
  // appended to the WAL and flushed *before* the store accepts the same
  // record — IOError means nothing was acked and nothing was stored.
  // Without durability enabled this is just store().Put. AlreadyExists
  // for duplicate ids (not logged).
  common::Status Ingest(Entity entity);

  // Flushes the store's memtable to a segment, freezes the index's delta
  // tier, then truncates the WAL. Each step commits through an atomic
  // manifest swap, and the WAL is truncated last — on any failure it is
  // left intact, so no acked write is ever exposed to loss by a failed
  // checkpoint.
  common::Status Checkpoint();

  // Rebuilds the shard from disk: the segment tiers were already loaded by
  // EnableDurability, so this replays the WAL on top (stopping cleanly at
  // a torn tail), then checkpoints to compact. Corrupt segments surface as
  // Corruption from EnableDurability rather than loading silently wrong.
  common::Status Recover();

 private:
  common::Status CheckpointLocked() WF_REQUIRES(dur_mu_);

  size_t id_;
  DataStore store_;
  InvertedIndex index_;
  MinerPipeline pipeline_;
  obs::MetricsRegistry metrics_;

  // Durability configuration (set once by EnableDurability, before any
  // concurrent use) and the state it guards.
  common::StorageFaultInjector* injector_ = nullptr;
  uint64_t checkpoint_every_appends_ = 0;
  mutable common::Mutex dur_mu_;  // serializes WAL appends and checkpoints
  WriteAheadLog wal_ WF_GUARDED_BY(dur_mu_);
  uint64_t appends_since_checkpoint_ WF_GUARDED_BY(dur_mu_) = 0;
};

// Outcome of one scatter/gather search. A node that failed (partition,
// injected fault, open breaker) is simply absent from `docs` and listed in
// `failed_services`; the gather never poisons or stalls on a sick shard.
// Coverage counters let applications see when an answer is partial.
struct SearchResult {
  std::vector<std::string> docs;
  size_t nodes_total = 0;      // search shards scattered to
  size_t nodes_responded = 0;  // shards that answered OK
  std::vector<std::string> failed_services;  // e.g. "node/3/search"
  bool complete() const { return nodes_responded == nodes_total; }
};

// Cluster-wide metrics roll-up: every node's wfstats export gathered over
// the bus (the same degraded-tolerant path an operator would use), merged
// with the cluster's own bus-level registry. A node that cannot answer —
// or answers with a malformed or unmergeable export — is listed in
// `failed_services` and simply missing from `merged`.
struct ClusterStats {
  obs::MetricsSnapshot merged;
  size_t nodes_total = 0;      // wfstats services scattered to
  size_t nodes_responded = 0;  // exports merged successfully
  std::vector<std::string> failed_services;
  bool complete() const { return nodes_responded == nodes_total; }
};

// The loosely coupled cluster (§2): N nodes behind a shared Vinci bus.
// Entities are hash-partitioned by id; miners run per shard in parallel;
// queries scatter over node services and gather the results.
class Cluster {
 public:
  explicit Cluster(size_t num_nodes);
  // Joins the bus's scatter pool first: a hedged scatter's abandoned
  // stragglers are detached tasks whose handlers touch nodes_, metrics_,
  // and health_, all of which are destroyed before bus_ (declared first)
  // without this.
  ~Cluster() { bus_.Shutdown(); }

  size_t node_count() const { return nodes_.size(); }
  // The node must be up (see CrashNode/RestartNode).
  ClusterNode& node(size_t i) {
    WF_CHECK(nodes_[i] != nullptr);
    return *nodes_[i];
  }
  bool IsNodeUp(size_t i) const { return nodes_[i] != nullptr; }
  size_t NodesUp() const;
  VinciBus& bus() { return bus_; }
  const VinciBus& bus() const { return bus_; }

  // The cluster-level registry (bus and ingest metrics land here; each
  // node's mining/indexing metrics live in its own registry).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Attaches a tracer to the cluster and its bus: Search() then opens a
  // root span and propagates its context through the scatter, so one query
  // exports a single stitched parent/child trace. nullptr detaches. The
  // tracer must outlive its attachment.
  void AttachTracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    bus_.AttachTracer(tracer);
  }

  // The cluster's health scoreboard: fed by every bus call (the bus gets
  // it attached at construction), consulted by hedged scatters, and
  // published into metrics() by CollectStats while hedging is enabled.
  HealthScoreboard& health() { return health_; }
  const HealthScoreboard& health() const { return health_; }

  // Turns on tail-tolerant scatters: deadline-bounded searches then go
  // through the hedged VinciBus::CallAll under `hedge` (with enabled forced
  // true), so a straggling shard is re-issued at its ~p95 and a suspect
  // shard is abandoned early instead of dragging the gather to the
  // deadline. Off by default — the unhedged path and its metric footprint
  // stay byte-identical for existing callers. Configuration, not
  // data-path: call before concurrent searches start.
  void EnableHedging(const HedgeOptions& hedge = {}) {
    hedge_ = hedge;
    hedge_.enabled = true;
  }

  // Shard owning an entity id (stable FNV hash).
  size_t Route(const std::string& entity_id) const {
    return common::Fnv1a64(entity_id) % nodes_.size();
  }

  // Stores an entity on its owning node.
  common::Status Ingest(Entity entity);

  // Adds a fresh instance of a miner to every node's pipeline (each shard
  // needs its own since pipelines run in parallel). The factory is invoked
  // once per node.
  void DeployMiner(
      const std::function<std::unique_ptr<EntityMiner>()>& factory);

  // Runs every node's MineAndIndex() over the cluster's shared mining
  // executor: node sweeps are dispatched as tasks and each sweep's
  // per-entity batches interleave on the same bounded worker set, so the
  // thread count stays fixed no matter how many shards mine at once.
  void MineAndIndexAll();

  // Replaces the shared mining executor (worker threads, batch size).
  // Configuration, not data-path: call while no mining sweep is running.
  void ConfigureMining(const MineExecutorOptions& options);
  MineExecutor& mining_executor() { return *executor_; }

  // Scatter/gather term or concept search over all node services. Nodes
  // that fail are tolerated; the result reports how many responded. The
  // caller's remaining end-to-end budget rides the scattered request
  // (wf-deadline-us, next to the trace context fields) and caps every
  // per-node call, so a straggler shard can degrade coverage but never
  // stall the gather past the deadline. An already-expired deadline fails
  // every shard up front — zero downstream dispatches — instead of
  // scattering work nobody will wait for.
  SearchResult Search(const std::string& term,
                      const Deadline& deadline = Deadline()) const;
  SearchResult SearchPhrase(const std::vector<std::string>& words,
                            const Deadline& deadline = Deadline()) const;

  // Scatter/gather over the nodes' index vocabularies: `docs` holds the
  // sorted union of the terms starting with `prefix` on every node that
  // answered, with the same coverage accounting as Search.
  SearchResult Vocabulary(const std::string& prefix) const;

  // Gathers and merges every node's wfstats export (see ClusterStats).
  ClusterStats CollectStats() const;

  size_t TotalEntities() const;

  // --- Durability & node lifecycle ----------------------------------------

  struct DurabilityOptions {
    std::string dir;  // per-node WAL + segment files live here
    // Acked WAL appends between automatic checkpoints (0 = manual only,
    // via CheckpointAll or per-node Checkpoint()).
    uint64_t checkpoint_every_appends = 0;
    // Storage-engine shape for every node: memtable ceiling (how much of a
    // shard may sit in RAM before it flushes) and compaction behavior for
    // both the store's and the index's segment runs.
    store::LsmOptions lsm = {};
  };
  // Makes every node durable under options.dir and recovers each from
  // whatever that directory already holds — a fresh directory yields empty
  // shards, an old one a restarted cluster. `injector` (optional) threads
  // storage fault injection through all node writes; it must outlive the
  // cluster. FailedPrecondition, with nothing changed, while a node is down.
  common::Status EnableDurability(
      const DurabilityOptions& options,
      common::StorageFaultInjector* injector = nullptr);

  // Checkpoints every up node; first failure wins, the rest still run.
  common::Status CheckpointAll();

  // Kills node i: its Vinci services are withdrawn and its in-memory state
  // is destroyed — exactly what a machine losing power loses. Queries keep
  // working but degrade (the dead shard shows up in failed_services and
  // coverage counters); ingests routed to it fail Unavailable. Durable
  // state on disk is untouched.
  common::Status CrashNode(size_t i);

  // Brings node i back: a fresh node recovers from its on-disk checkpoint
  // + WAL, gets the cluster's deployed miners, and re-registers its
  // services — search coverage returns to complete(). Requires durability
  // (a non-durable crash has nothing to restart from).
  common::Status RestartNode(size_t i);

 private:
  SearchResult TracedSearch(const std::string& name,
                            std::vector<std::pair<std::string, std::string>>
                                request_fields,
                            const Deadline& deadline) const;

  // Adds down nodes to a gather's accounting (service name from
  // `service_name(i)`) so degraded coverage is visible even though nothing
  // was scattered to them.
  template <typename ResultT>
  void AccountDownNodes(
      const std::function<std::string(size_t)>& service_name,
      ResultT* result) const;

  VinciBus bus_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  obs::MetricsRegistry metrics_;
  HealthScoreboard health_;
  HedgeOptions hedge_;  // enabled == false until EnableHedging
  obs::Tracer* tracer_ = nullptr;
  // Shared bounded worker pool for mining sweeps (see MineAndIndexAll).
  std::unique_ptr<MineExecutor> executor_;

  // Lifecycle state: miner factories are kept so a restarted node gets the
  // same pipeline its peers got from DeployMiner.
  std::vector<std::function<std::unique_ptr<EntityMiner>()>> miner_factories_;
  DurabilityOptions durability_;
  common::StorageFaultInjector* injector_ = nullptr;
  bool durable_ = false;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_CLUSTER_H_
