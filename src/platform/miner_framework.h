#ifndef WF_PLATFORM_MINER_FRAMEWORK_H_
#define WF_PLATFORM_MINER_FRAMEWORK_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/analysis.h"
#include "platform/data_store.h"
#include "platform/entity.h"

namespace wf::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace wf::obs

namespace wf::platform {

class MineExecutor;

// Per-entity context the pipeline hands to every miner in the chain: the
// entity's linguistic-analysis artifact, built for the chain's first miner,
// shared by the rest and dropped when the chain ends. It describes the
// entity's body (empty bodies included) and computes tags and parses only
// for the sentences some miner reads.
struct MineContext {
  core::LinguisticAnalysis& analysis;
};

// Entity-level miner (§2): processes one entity at a time, with no
// information from neighboring entities, typically augmenting it with
// annotations or conceptual tokens. Examples in the paper: tokenizer,
// geographic-context discoverer, named-entity extractor — and the sentiment
// miner itself.
class EntityMiner {
 public:
  virtual ~EntityMiner() = default;
  virtual std::string name() const = 0;
  virtual common::Status Process(Entity& entity,
                                 const MineContext& context) = 0;

  // Convenience for one entity outside a pipeline: analyzes the body and
  // calls the context form. Virtual, and wants_analysis() kept but unread,
  // only while the repository benchmark's pass-through miner overrides
  // both (ROADMAP item 9).
  virtual common::Status Process(Entity& entity);
  virtual bool wants_analysis() const { return false; }

  // True when Process may run concurrently with Process on *other*
  // entities (never the same one). Miners with cross-document state (e.g.
  // incrementally built corpus statistics) must return false; the pipeline
  // then falls back to the sequential sweep.
  virtual bool parallel_safe() const { return true; }
};

// Corpus-level miner (§2): needs all or part of the data in store
// (aggregate statistics, duplicate detection, trending...).
class CorpusMiner {
 public:
  virtual ~CorpusMiner() = default;
  virtual std::string name() const = 0;
  virtual common::Status Run(DataStore& store) = 0;
};

// A chain of entity-level miners applied in registration order, with
// per-miner counters — the unit of deployment a node runs over its shard.
//
// A miner that keeps failing is quarantined: after `quarantine_threshold`
// consecutive failures it is skipped instead of failing every remaining
// entity (one broken plugin must not poison a whole shard's mining pass).
// Quarantine state is visible in MinerStats and cleared with
// ClearQuarantines() once the plugin is fixed.
//
// Determinism contract for ProcessStore (DESIGN.md §10): the sweep is a
// pure function of (store contents, pipeline configuration), independent
// of thread count and scheduling. It reads each record once, in windows of
// kSweepWindow sorted ids. Each entity's full miner chain runs on exactly
// one thread (so per-entity effects like concept-token order are
// chain-ordered). When a window is mined, the calling thread hands its
// entities to the commit callback and Upserts them, in sorted-id order, so
// the callback and the store see one canonical sequence at every thread
// count. Failure streaks and quarantine trips are replayed in that same
// order when the sweep ends. Quarantine is evaluated at sweep boundaries:
// miners quarantined when the sweep starts are skipped throughout; a
// streak that crosses the threshold during the sweep trips quarantine for
// subsequent sweeps.
class MinerPipeline {
 public:
  struct MinerStats {
    std::string name;
    size_t entities = 0;
    size_t failures = 0;
    std::chrono::microseconds total_time{0};
    size_t consecutive_failures = 0;
    bool quarantined = false;
  };

  // Consecutive failures before a miner is quarantined (default; override
  // per pipeline with SetQuarantineThreshold, 0 disables).
  static constexpr size_t kDefaultQuarantineThreshold = 16;

  // Entities ProcessStore reads and mines per window: what bounds the
  // sweep's working set, whatever the shard size.
  static constexpr size_t kSweepWindow = 256;

  // Receives each swept entity, mined, just before it is committed.
  using CommitFn = std::function<void(const Entity&)>;

  void AddMiner(std::unique_ptr<EntityMiner> miner);

  // Attaches a metrics registry: per-miner stage timings, entity/failure
  // counters, and quarantine events are then mirrored to it under
  // miner/<name>/... (DESIGN.md §8). Handles are resolved once per miner,
  // so the per-entity hot path costs two counter bumps and one histogram
  // record. Configuration, not data-path: attach before processing starts.
  // The registry must outlive this pipeline; nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Runs the pipeline over every entity in the store under the
  // deterministic sweep contract above; failures are counted but do not
  // stop the sweep. Per-entity work is scheduled on `executor` when every
  // active miner is parallel_safe() (sequential otherwise, and when
  // `executor` is null), with byte-identical output either way. Each
  // entity goes to `commit` (if set) before its Upsert; with no miners
  // the sweep only feeds `commit` and leaves the store as it is.
  void ProcessStore(DataStore& store, MineExecutor* executor = nullptr,
                    const CommitFn& commit = nullptr);

  // Safe to call while ProcessStore runs on another thread
  // (e.g. a stats RPC during a mining sweep); returns a consistent copy.
  std::vector<MinerStats> Stats() const;
  size_t miner_count() const { return miners_.size(); }

  // Quarantine controls. Configuration, not data-path: set the threshold
  // before processing starts.
  void SetQuarantineThreshold(size_t threshold) {
    quarantine_threshold_ = threshold;
  }
  size_t quarantine_threshold() const { return quarantine_threshold_; }
  // Lifts every quarantine and resets the failure streaks (e.g. after the
  // faulty dependency recovers).
  void ClearQuarantines();

 private:
  // Pre-resolved registry handles for one miner (null when no registry is
  // attached).
  struct MinerMetrics {
    obs::Counter* entities = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Histogram* stage_us = nullptr;
  };

  // Per-(entity, miner) outcome of one sweep, replayed in canonical order
  // to update streaks/quarantine identically at every thread count.
  enum class StepOutcome : uint8_t { kNotRun = 0, kOk, kFailed };

  // One sweep: the miner set fixed at its boundary, and the per-(entity,
  // miner) outcome and elapsed-time matrices its chains fill, indexed
  // [entity * miner_count + miner].
  struct Sweep {
    std::vector<char> active;
    std::vector<MinerMetrics> handles;
    bool all_parallel_safe = true;
    std::vector<StepOutcome> outcomes;
    std::vector<uint64_t> elapsed_us;
  };

  MinerMetrics ResolveMetrics(const std::string& miner_name) const;
  Sweep BeginSweep(size_t entity_count) const;
  // Runs entity `e`'s chain over the sweep's active miners and records each
  // step in row `e` of the matrices; chains of distinct entities may run
  // concurrently. Stops at the first failure.
  void RunChain(Sweep& sweep, size_t e, Entity& entity) const;
  // Replays the matrices into stats_ in canonical order: per-miner totals,
  // failure streaks and quarantine trips.
  void EndSweep(const Sweep& sweep);

  std::vector<std::unique_ptr<EntityMiner>> miners_;
  size_t quarantine_threshold_ = kDefaultQuarantineThreshold;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<MinerMetrics> metric_handles_;  // parallel to miners_
  // Guards stats_. AddMiner is configuration, not data-path: it must not
  // run concurrently with processing (miners_ itself is unguarded).
  mutable common::Mutex stats_mu_;
  std::vector<MinerStats> stats_ WF_GUARDED_BY(stats_mu_);
};

// --- Built-in entity miners --------------------------------------------------

// Annotates sentence boundaries in the body ("sentences" layer).
class SentenceBoundaryMiner : public EntityMiner {
 public:
  std::string name() const override { return "sentence_boundary"; }
  common::Status Process(Entity& entity, const MineContext& context) override;
};

// Adds lowercase token counts as a "token_count" field (a tiny stand-in for
// the paper's tokenizer miner; real token streams are recomputed on demand
// by consumers, which is cheaper than persisting them).
class TokenStatsMiner : public EntityMiner {
 public:
  std::string name() const override { return "token_stats"; }
  common::Status Process(Entity& entity, const MineContext& context) override;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_MINER_FRAMEWORK_H_
