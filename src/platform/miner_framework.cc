#include "platform/miner_framework.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "platform/mine_executor.h"

namespace wf::platform {

using ::wf::common::Status;

MinerPipeline::MinerMetrics MinerPipeline::ResolveMetrics(
    const std::string& miner_name) const {
  MinerMetrics handles;
  if (metrics_ == nullptr) return handles;
  const std::string prefix = "miner/" + miner_name + "/";
  handles.entities = metrics_->GetCounter(prefix + "entities_total");
  handles.failures = metrics_->GetCounter(prefix + "failures_total");
  handles.quarantined = metrics_->GetCounter(prefix + "quarantined_total");
  handles.stage_us = metrics_->GetHistogram(
      prefix + "stage_us", obs::DefaultLatencyBoundsUs(), /*timing=*/true);
  return handles;
}

void MinerPipeline::AddMiner(std::unique_ptr<EntityMiner> miner) {
  common::MutexLock lock(stats_mu_);
  stats_.push_back(MinerStats{miner->name()});
  metric_handles_.push_back(ResolveMetrics(miner->name()));
  miners_.push_back(std::move(miner));
}

void MinerPipeline::AttachMetrics(obs::MetricsRegistry* metrics) {
  common::MutexLock lock(stats_mu_);
  metrics_ = metrics;
  for (size_t i = 0; i < miners_.size(); ++i) {
    metric_handles_[i] = ResolveMetrics(miners_[i]->name());
  }
}

common::Status EntityMiner::Process(Entity& entity) {
  std::unique_ptr<core::LinguisticAnalysis> analysis =
      core::AnalyzeDocument(entity.body());
  return Process(entity, MineContext{*analysis});
}

void MinerPipeline::ClearQuarantines() {
  common::MutexLock lock(stats_mu_);
  for (MinerStats& stats : stats_) {
    stats.quarantined = false;
    stats.consecutive_failures = 0;
  }
}

MinerPipeline::Sweep MinerPipeline::BeginSweep(size_t entity_count) const {
  // Sweep-boundary quarantine snapshot (see header contract): the active
  // set is fixed before the first entity, so it cannot depend on the order
  // entities happen to finish in.
  const size_t miner_count = miners_.size();
  Sweep sweep;
  sweep.active.assign(miner_count, 0);
  sweep.handles.resize(miner_count);
  {
    common::MutexLock lock(stats_mu_);
    for (size_t i = 0; i < miner_count; ++i) {
      sweep.active[i] = stats_[i].quarantined ? 0 : 1;
      sweep.handles[i] = metric_handles_[i];
    }
  }
  for (size_t i = 0; i < miner_count; ++i) {
    if (!sweep.active[i]) continue;
    if (!miners_[i]->parallel_safe()) sweep.all_parallel_safe = false;
  }
  sweep.outcomes.assign(entity_count * miner_count, StepOutcome::kNotRun);
  sweep.elapsed_us.assign(entity_count * miner_count, 0);
  return sweep;
}

void MinerPipeline::RunChain(Sweep& sweep, size_t e, Entity& entity) const {
  // One artifact per entity, built for its first active miner, shared by
  // every miner in its chain and dropped when the chain ends.
  std::unique_ptr<core::LinguisticAnalysis> analysis;
  const size_t miner_count = miners_.size();
  for (size_t i = 0; i < miner_count; ++i) {
    if (!sweep.active[i]) continue;
    if (analysis == nullptr) analysis = core::AnalyzeDocument(entity.body());
    const MinerMetrics& handles = sweep.handles[i];
    const uint64_t start_us = obs::MonotonicNowUs();
    Status s = miners_[i]->Process(entity, MineContext{*analysis});
    const uint64_t elapsed = obs::MonotonicNowUs() - start_us;
    sweep.elapsed_us[e * miner_count + i] = elapsed;
    sweep.outcomes[e * miner_count + i] =
        s.ok() ? StepOutcome::kOk : StepOutcome::kFailed;
    if (handles.stage_us != nullptr) handles.stage_us->Record(elapsed);
    if (handles.entities != nullptr) handles.entities->Add(1);
    if (!s.ok()) {
      if (handles.failures != nullptr) handles.failures->Add(1);
      return;  // first failure stops this entity's chain
    }
  }
}

void MinerPipeline::EndSweep(const Sweep& sweep) {
  // Row-major order is canonical order: entity by entity, and within an
  // entity miner by miner — the same trips fire regardless of execution
  // interleaving.
  common::MutexLock lock(stats_mu_);
  for (size_t k = 0; k < sweep.outcomes.size(); ++k) {
    const StepOutcome outcome = sweep.outcomes[k];
    if (outcome == StepOutcome::kNotRun) continue;
    const size_t i = k % miners_.size();
    stats_[i].total_time += std::chrono::microseconds(sweep.elapsed_us[k]);
    ++stats_[i].entities;
    if (outcome == StepOutcome::kOk) {
      stats_[i].consecutive_failures = 0;
      continue;
    }
    ++stats_[i].failures;
    ++stats_[i].consecutive_failures;
    if (quarantine_threshold_ > 0 &&
        stats_[i].consecutive_failures >= quarantine_threshold_ &&
        !stats_[i].quarantined) {
      stats_[i].quarantined = true;
      if (sweep.handles[i].quarantined != nullptr) {
        sweep.handles[i].quarantined->Add(1);
      }
      WF_LOG(Warning) << "quarantining miner '" << stats_[i].name
                      << "' after " << stats_[i].consecutive_failures
                      << " consecutive failures";
    }
  }
}

void MinerPipeline::ProcessStore(DataStore& store, MineExecutor* executor,
                                 const CommitFn& commit) {
  if (miners_.empty() && commit == nullptr) return;
  // Canonical sweep order: sorted by id. Ids come from the key indexes
  // alone; records are read a window at a time, so the sweep holds one
  // window of entities, not the shard, and no store lock while mining.
  const std::vector<std::string> ids = store.Ids();
  Sweep sweep = BeginSweep(ids.size());
  const bool parallel = executor != nullptr && sweep.all_parallel_safe;
  std::vector<Entity> window;
  window.reserve(kSweepWindow);
  size_t row = 0;  // the window's first row in the sweep matrices
  for (size_t begin = 0; begin < ids.size(); begin += kSweepWindow) {
    const size_t end = std::min(ids.size(), begin + kSweepWindow);
    window.clear();
    for (size_t i = begin; i < end; ++i) {
      common::Result<Entity> entity = store.Get(ids[i]);
      // Deleted since Ids(): nothing left to mine. Any other failure is a
      // record this process wrote that no longer reads back.
      if (entity.status().code() == common::StatusCode::kNotFound) continue;
      WF_CHECK_OK(entity.status());
      window.push_back(std::move(entity).value());
    }
    // Outcomes land in the sweep matrices; failures never stop a sweep.
    auto run_entity = [&](size_t k) { RunChain(sweep, row + k, window[k]); };
    if (parallel) {
      executor->ParallelFor(window.size(), run_entity);
    } else {
      for (size_t k = 0; k < window.size(); ++k) run_entity(k);
    }
    // Commit in canonical order on the calling thread: identical callback
    // and Upsert sequences at every thread count mean an identical index
    // and store layout (and byte-identical snapshots). A failed segment
    // flush mid-commit is a storage-layer fault the crash-recovery path
    // owns; the commit itself must not be abandoned halfway or the sweep
    // diverges from the contract.
    for (Entity& entity : window) {
      if (commit != nullptr) commit(entity);
      if (miners_.empty()) continue;
      common::Status upserted = store.Upsert(std::move(entity));
      (void)upserted;
    }
    row += window.size();
  }
  EndSweep(sweep);
}

std::vector<MinerPipeline::MinerStats> MinerPipeline::Stats() const {
  common::MutexLock lock(stats_mu_);
  return stats_;
}

common::Status SentenceBoundaryMiner::Process(Entity& entity,
                                              const MineContext& context) {
  const text::TokenStream& tokens = context.analysis.tokens;
  for (const text::SentenceSpan& span : context.analysis.sentences) {
    AnnotationSpan ann;
    ann.begin = tokens[span.begin_token].begin;
    ann.end = tokens[span.end_token - 1].end;
    entity.AddAnnotation("sentences", std::move(ann));
  }
  return Status::Ok();
}

common::Status TokenStatsMiner::Process(Entity& entity,
                                        const MineContext& context) {
  const text::TokenStream& tokens = context.analysis.tokens;
  size_t words = 0;
  for (const text::Token& t : tokens) {
    if (t.kind == text::TokenKind::kWord) ++words;
  }
  entity.SetField("token_count", common::StrFormat("%zu", tokens.size()));
  entity.SetField("word_count", common::StrFormat("%zu", words));
  return Status::Ok();
}

}  // namespace wf::platform
