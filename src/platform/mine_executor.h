#ifndef WF_PLATFORM_MINE_EXECUTOR_H_
#define WF_PLATFORM_MINE_EXECUTOR_H_
// wflint: allow(platform-raw-thread) — this header declares the shared
// pool's own worker storage.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace wf::obs {
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace wf::obs

namespace wf::platform {

struct MineExecutorOptions {
  // Worker threads backing the pool. 0 means "match the hardware",
  // clamped to [1, 16]. Note the pool adds `threads` workers on top of
  // every calling thread: callers always participate in their own batch,
  // so even threads = 0 on a single-core host makes progress.
  size_t threads = 0;
  // Entities per claimed batch. Workers claim whole ranges instead of
  // single items to bound dispatch overhead on microscopic tasks. 0 means
  // "pick from the task count" (roughly 4 batches per worker).
  size_t batch_size = 0;
};

// The one worker-pool type: a bounded set of persistent workers. Tasks of
// one ParallelFor form a batch; workers and the calling thread both claim
// ranges from it, so progress never depends on a free pool thread and a
// task that calls ParallelFor again drains its own nested batch (no
// deadlock). A Cluster shares one executor across its shards' mining
// sweeps, so node-level sweeps dispatched concurrently interleave their
// batches on the same bounded worker set instead of multiplying threads;
// each VinciBus owns one (batch_size 1) for its scatters, where Submit
// also carries the hedged gather's detached attempts.
//
// Determinism contract: ParallelFor provides *scheduling*, never
// *ordering* — tasks must not communicate, and every ordered effect (store
// commit, index append, metrics that must replay) belongs to the caller
// after it returns, applied in a canonical order (see
// MinerPipeline::ProcessStore).
class MineExecutor {
 public:
  MineExecutor() : MineExecutor(MineExecutorOptions{}) {}
  explicit MineExecutor(const MineExecutorOptions& options);
  ~MineExecutor();
  MineExecutor(const MineExecutor&) = delete;
  MineExecutor& operator=(const MineExecutor&) = delete;

  // Mirrors pool gauges/histograms into `metrics` under mine_executor/...
  // (nullptr detaches). Configuration, not data-path; the registry must
  // outlive the attachment.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Runs task(i) for every i in [0, count), partitioned into stable
  // contiguous ranges, returning after all have finished. The calling
  // thread participates. `task` must be safe to invoke concurrently from
  // multiple threads with distinct indices.
  // The batch wait hand-rolls a std::unique_lock over the pool mutex,
  // which the clang analysis cannot follow.
  void ParallelFor(size_t count, const std::function<void(size_t)>& task)
      WF_NO_THREAD_SAFETY_ANALYSIS;

  // Enqueues one task to run on a pool worker, never on the calling thread,
  // unordered relative to batches; workers take submitted tasks before
  // batch work. For callers that must not park inside a task: the bus's
  // hedged gather keeps watching the clock while its attempts sleep
  // through their round trips. Tasks still queued when the executor is
  // destroyed are dropped unstarted.
  void Submit(std::function<void()> task);

  // Worker threads owned by the pool (not counting participating callers).
  size_t threads() const { return workers_.size(); }
  const MineExecutorOptions& options() const { return options_; }

  // Resolves MineExecutorOptions::threads semantics: 0 -> hardware
  // concurrency, clamped to [1, 16].
  static size_t ResolveThreads(size_t requested);

 private:
  struct Batch {
    const std::function<void(size_t)>* task = nullptr;
    size_t count = 0;        // total indices
    size_t stride = 1;       // indices claimed per grab
    std::atomic<size_t> next{0};
    size_t done = 0;         // finished indices; guarded by pool mu_
  };

  // Worker and stride internals juggle a std::unique_lock across the
  // condition-variable waits, which the clang analysis cannot follow.
  void WorkerLoop() WF_NO_THREAD_SAFETY_ANALYSIS;
  // Claims and runs one stride of `batch`; returns false when the batch
  // had nothing left to claim. `lock` is held on entry and exit.
  bool RunStride(const std::shared_ptr<Batch>& batch,
                 std::unique_lock<common::Mutex>& lock)
      WF_NO_THREAD_SAFETY_ANALYSIS;

  MineExecutorOptions options_;
  // Lifecycle-immutable: workers_ is filled in the constructor and joined
  // in the destructor, never mutated while the pool is live.
  std::vector<std::thread> workers_;
  common::Mutex mu_;
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  std::deque<std::shared_ptr<Batch>> queue_ WF_GUARDED_BY(mu_);
  std::deque<std::function<void()>> singles_ WF_GUARDED_BY(mu_);
  bool stop_ WF_GUARDED_BY(mu_) = false;

  std::atomic<size_t> active_workers_{0};
  // Metric handles; attached under mu_ and written back under mu_ in
  // RunStride so a detach never races a stride's gauge update.
  obs::Gauge* utilization_gauge_ WF_GUARDED_BY(mu_) = nullptr;
  obs::Histogram* batch_latency_us_ WF_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* threads_gauge_ WF_GUARDED_BY(mu_) = nullptr;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_MINE_EXECUTOR_H_
