#include "loops.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "spans.h"

namespace wfbench {

int64_t Quantile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

namespace {

CpuTicks ReadCpuTicks(int64_t at_ns) {
  CpuTicks ticks;
  ticks.at_ns = at_ns;
  timespec process{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &process);
  ticks.process_ns = int64_t{process.tv_sec} * 1'000'000'000 + process.tv_nsec;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line)) return ticks;
  std::istringstream fields(line);
  std::string cpu;
  fields >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  uint64_t value = 0;
  for (int i = 0; fields >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

// The samples that bracket [from, to): the last at or before `from` and
// the first at or after `to` (or the last one).
std::pair<const CpuTicks*, const CpuTicks*> Bracket(
    const std::vector<CpuTicks>& cpu, int64_t from, int64_t to) {
  size_t a = 0;
  while (a + 1 < cpu.size() && cpu[a + 1].at_ns <= from) ++a;
  size_t b = a + 1;
  while (b + 1 < cpu.size() && cpu[b].at_ns < to) ++b;
  return {&cpu[a], &cpu[b]};
}

// Share of the machine's CPU time stolen between two offsets; 0 without
// samples.
double StealShare(const std::vector<CpuTicks>& cpu, int64_t from, int64_t to) {
  if (cpu.size() < 2) return 0.0;
  const auto [a, b] = Bracket(cpu, from, to);
  const uint64_t total = b->total - a->total;
  return total == 0 ? 0.0
                    : static_cast<double>(b->steal - a->steal) /
                          static_cast<double>(total);
}

constexpr int64_t kCpuSampleNs = 100'000'000;
constexpr int64_t kSamplesPerWindow = kWindowNs / kCpuSampleNs;

// Steal share of each whole window of [0, windows * kWindowNs).
std::vector<double> WindowSteal(const std::vector<CpuTicks>& cpu,
                                size_t windows) {
  std::vector<double> steal(windows);
  for (size_t w = 0; w < windows; ++w) {
    const int64_t from = static_cast<int64_t>(w) * kWindowNs;
    steal[w] = StealShare(cpu, from, from + kWindowNs);
  }
  return steal;
}

// Samples the machine's CPU ticks every 100 ms on the loop's own thread and
// decides, at each window boundary, whether the loop has measured enough.
class Meter {
 public:
  Meter(int64_t start, const Budget& budget) : start_(start), budget_(budget) {
    cpu_.push_back(ReadCpuTicks(0));
  }

  int64_t next_sample() const { return start_ + samples_ * kCpuSampleNs; }

  // Call at or after next_sample(); returns true when the loop may stop.
  // The loop then covers windows() whole windows.
  bool Sample() {
    const int64_t k = samples_++;
    cpu_.push_back(ReadCpuTicks(k * kCpuSampleNs));
    if (k % kSamplesPerWindow != 0) return false;
    windows_ = static_cast<size_t>(k / kSamplesPerWindow);
    if (windows_ >= kWarmupWindows + budget_.max_windows) return true;
    const std::vector<double> steal = WindowSteal(cpu_, windows_);
    const size_t quiet = static_cast<size_t>(
        std::count_if(steal.begin() + std::min(kWarmupWindows, windows_),
                      steal.end(), [](double s) { return s <= kQuietSteal; }));
    return quiet >= budget_.quiet_windows;
  }

  size_t windows() const { return windows_; }
  std::vector<CpuTicks> TakeCpu() { return std::move(cpu_); }

 private:
  const int64_t start_;
  const Budget budget_;
  int64_t samples_ = 1;  // the next sample's index; sample 0 is the start
  size_t windows_ = 0;   // whole windows behind the last sample
  std::vector<CpuTicks> cpu_;
};

void SleepUntil(int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

// Per-thread results, merged after the threads are joined.
struct Local {
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> at_ns;
  size_t failed = 0;

  void Add(bool failed_request, int64_t latency, int64_t at) {
    latency_ns.push_back(failed_request ? kFailedLatencyNs : latency);
    at_ns.push_back(at);
    if (failed_request) ++failed;
  }
};

LoopResult Merge(std::vector<Local>& locals, Meter& meter) {
  LoopResult result;
  for (Local& local : locals) {
    result.latency_ns.insert(result.latency_ns.end(), local.latency_ns.begin(),
                             local.latency_ns.end());
    result.at_ns.insert(result.at_ns.end(), local.at_ns.begin(),
                        local.at_ns.end());
    result.failed += local.failed;
  }
  result.attempted = result.latency_ns.size();
  result.windows = meter.windows();
  result.cpu = meter.TakeCpu();
  return result;
}

}  // namespace

QuietFigures Quietest(const LoopResult& loop, size_t keep) {
  QuietFigures figures;
  const size_t windows = loop.windows;
  if (windows <= kWarmupWindows) return figures;
  const size_t measured = windows - kWarmupWindows;
  keep = std::clamp<size_t>(keep, 1, measured);
  const std::vector<double> steal = WindowSteal(loop.cpu, windows);
  std::vector<std::pair<double, size_t>> by_steal;
  for (size_t w = kWarmupWindows; w < windows; ++w) {
    by_steal.emplace_back(steal[w], w);
    figures.steal_all += steal[w] / static_cast<double>(measured);
  }
  std::sort(by_steal.begin(), by_steal.end());
  std::vector<bool> kept(windows, false);
  int64_t process_ns = 0;
  for (size_t k = 0; k < keep; ++k) {
    const size_t w = by_steal[k].second;
    kept[w] = true;
    figures.steal_kept += by_steal[k].first / static_cast<double>(keep);
    const int64_t from = static_cast<int64_t>(w) * kWindowNs;
    const auto [a, b] = Bracket(loop.cpu, from, from + kWindowNs);
    process_ns += b->process_ns - a->process_ns;
  }
  std::vector<int64_t> latencies;
  for (size_t i = 0; i < loop.latency_ns.size(); ++i) {
    const int64_t at = loop.at_ns[i];
    if (at < 0) continue;
    const size_t w = static_cast<size_t>(at / kWindowNs);
    if (w < windows && kept[w]) latencies.push_back(loop.latency_ns[i]);
  }
  figures.samples = latencies.size();
  figures.cpu_ns_per_request =
      static_cast<double>(process_ns) /
      static_cast<double>(std::max<size_t>(1, latencies.size()));
  figures.per_second = static_cast<double>(latencies.size()) * 1e9 /
                       static_cast<double>(keep * kWindowNs);
  figures.p50_ns = Quantile(latencies, 0.50);
  figures.p99_ns = Quantile(std::move(latencies), 0.99);
  return figures;
}

LoopResult RunClosedLoop(size_t clients, const Budget& budget,
                         const RequestFn& fn) {
  clients = std::max<size_t>(1, clients);
  std::vector<Local> locals(clients);
  std::atomic<bool> stop{false};
  const int64_t start = NowNs();
  Meter meter(start, budget);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Local& local = locals[c];
      for (size_t seq = 0; !stop.load(std::memory_order_relaxed); ++seq) {
        const int64_t sent = NowNs();
        const bool failed = fn(c, seq);
        const int64_t done = NowNs();
        local.Add(failed, done - sent, done - start);
      }
    });
  }
  do {
    SleepUntil(meter.next_sample());
  } while (!meter.Sample());
  stop.store(true);
  for (std::thread& t : threads) t.join();
  return Merge(locals, meter);
}

std::vector<int64_t> PoissonSchedule(double rate_per_s, int64_t duration_ns,
                                     uint64_t seed) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0) return due;
  wf::common::Rng rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (;;) {
    t += -mean_gap_ns * std::log(1.0 - rng.Double());
    if (t >= static_cast<double>(duration_ns)) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

LoopResult RunOpenLoop(const std::vector<int64_t>& due_ns, size_t workers,
                       const Budget& budget, const RequestFn& fn) {
  workers = std::max<size_t>(1, workers);
  std::vector<Local> locals(workers);
  std::vector<int64_t> late;
  late.reserve(due_ns.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> queue;  // guarded by mu
  bool closed = false;       // guarded by mu

  const int64_t start = NowNs();
  Meter meter(start, budget);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Local& local = locals[w];
      for (;;) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        const bool failed = fn(w, i);
        const int64_t done = NowNs();
        local.Add(failed, done - (start + due_ns[i]), due_ns[i]);
      }
    });
  }
  // Dispatch on schedule; meter at every sampling point that falls due.
  bool done = false;
  for (size_t i = 0; !done; ++i) {
    const int64_t due = i < due_ns.size() ? start + due_ns[i] : INT64_MAX;
    while (!done && meter.next_sample() <= due) {
      SleepUntil(meter.next_sample());
      done = meter.Sample();
    }
    if (done) break;
    SleepUntil(due);
    late.push_back(NowNs() - due);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  LoopResult result = Merge(locals, meter);
  result.late_ns = std::move(late);
  return result;
}

}  // namespace wfbench
