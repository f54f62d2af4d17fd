// wflint: allow(platform-raw-thread) — this IS the shared pool
// implementation the rule points everyone else at.
#include "platform/mine_executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace wf::platform {

size_t MineExecutor::ResolveThreads(size_t requested) {
  if (requested == 0) {
    requested = std::thread::hardware_concurrency();
  }
  return std::min<size_t>(16, std::max<size_t>(1, requested));
}

MineExecutor::MineExecutor(const MineExecutorOptions& options)
    : options_(options) {
  const size_t threads = ResolveThreads(options_.threads);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MineExecutor::~MineExecutor() {
  {
    common::MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void MineExecutor::AttachMetrics(obs::MetricsRegistry* metrics) {
  common::MutexLock lock(mu_);
  if (metrics == nullptr) {
    utilization_gauge_ = nullptr;
    batch_latency_us_ = nullptr;
    threads_gauge_ = nullptr;
    return;
  }
  utilization_gauge_ = metrics->GetGauge("mine_executor/busy_workers");
  threads_gauge_ = metrics->GetGauge("mine_executor/pool_threads");
  threads_gauge_->Set(static_cast<int64_t>(workers_.size()));
  batch_latency_us_ = metrics->GetHistogram("mine_executor/batch_latency_us",
                                            obs::DefaultLatencyBoundsUs(),
                                            /*timing=*/true);
}

void MineExecutor::ParallelFor(size_t count,
                               const std::function<void(size_t)>& task) {
  if (count == 0) return;
  auto batch = std::make_shared<Batch>();
  batch->task = &task;
  batch->count = count;
  size_t stride = options_.batch_size;
  if (stride == 0) {
    // ~4 claims per participant keeps the tail balanced without paying a
    // queue round-trip per entity.
    stride = count / (4 * (workers_.size() + 1));
  }
  batch->stride = std::max<size_t>(1, std::min<size_t>(stride, 64));

  std::unique_lock<common::Mutex> lock(mu_);
  queue_.push_back(batch);
  work_cv_.notify_all();
  while (RunStride(batch, lock)) {
  }
  done_cv_.wait(lock, [&] { return batch->done == batch->count; });
  // The batch may still sit in the queue with all ranges claimed; remove
  // it so no worker touches it after `task` goes out of scope.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == batch) {
      queue_.erase(it);
      break;
    }
  }
}

void MineExecutor::Submit(std::function<void()> task) {
  {
    common::MutexLock lock(mu_);
    singles_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool MineExecutor::RunStride(const std::shared_ptr<Batch>& batch,
                             std::unique_lock<common::Mutex>& lock) {
  const size_t begin = batch->next.fetch_add(batch->stride);
  if (begin >= batch->count) return false;
  const size_t end = std::min(batch->count, begin + batch->stride);
  // Gauge updates happen under mu_ so the last write always reflects the
  // true busy count (an unordered stale Set could leave a quiescent pool
  // exporting busy_workers != 0, breaking deterministic exports).
  const size_t busy = active_workers_.fetch_add(1) + 1;
  if (utilization_gauge_ != nullptr) {
    utilization_gauge_->Set(static_cast<int64_t>(busy));
  }
  lock.unlock();
  const uint64_t t0 = batch_latency_us_ != nullptr ? obs::MonotonicNowUs() : 0;
  for (size_t i = begin; i < end; ++i) (*batch->task)(i);
  if (batch_latency_us_ != nullptr) {
    batch_latency_us_->Record(obs::MonotonicNowUs() - t0);
  }
  lock.lock();
  const size_t still_busy = active_workers_.fetch_sub(1) - 1;
  if (utilization_gauge_ != nullptr) {
    utilization_gauge_->Set(static_cast<int64_t>(still_busy));
  }
  batch->done += end - begin;
  if (batch->done == batch->count) done_cv_.notify_all();
  return true;
}

void MineExecutor::WorkerLoop() {
  std::unique_lock<common::Mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || !singles_.empty() || !queue_.empty();
    });
    if (stop_) return;
    if (!singles_.empty()) {
      std::function<void()> task = std::move(singles_.front());
      singles_.pop_front();
      lock.unlock();
      task();
      lock.lock();
      continue;
    }
    std::shared_ptr<Batch> batch = queue_.front();
    if (!RunStride(batch, lock)) {
      // Fully claimed: retire it from the queue head so later batches run.
      if (!queue_.empty() && queue_.front() == batch) queue_.pop_front();
    }
  }
}

}  // namespace wf::platform
