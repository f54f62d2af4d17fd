#ifndef WFBENCH_LOOPS_H_
#define WFBENCH_LOOPS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace wfbench {

// Serves one request; returns true when it failed (non-OK, shed, or a
// wrong answer). `worker` is the calling thread's index in [0, workers),
// `seq` the request's index: per client in a closed loop, in the schedule
// in an open loop.
using RequestFn = std::function<bool(size_t worker, size_t seq)>;

// Latency of a failed request: it misses every latency limit.
inline constexpr int64_t kFailedLatencyNs = int64_t{1} << 50;

// Cumulative CPU ticks of the whole machine from /proc/stat. `steal` is
// time the hypervisor ran other guests while this one had work to do.
// `process_ns` is the CPU time this process has used, on every thread.
struct CpuTicks {
  int64_t at_ns = 0;  // relative to the loop's start
  uint64_t steal = 0;
  uint64_t total = 0;
  int64_t process_ns = 0;
};

// How long a loop measures. The benchmark shares its host with other
// virtual machines, and time the hypervisor gives them (/proc/stat steal)
// stalls every thread at once: a few percent of steal can halve a
// lock-heavy phase's throughput. So a loop is cut into windows of
// kWindowNs and runs until `quiet_windows` of them had at most kQuietSteal
// steal, or until `max_windows` windows have passed; its figures come
// from its `quiet_windows` quietest windows. The first kWarmupWindows
// windows warm the host up (idle virtual CPUs take a while to get
// scheduled again) and are never counted. On a quiet host a loop runs
// (kWarmupWindows + quiet_windows) * kWindowNs.
inline constexpr int64_t kWindowNs = 500'000'000;
inline constexpr size_t kWarmupWindows = 1;
inline constexpr double kQuietSteal = 0.02;
struct Budget {
  size_t quiet_windows = 1;
  size_t max_windows = 2;
};

struct LoopResult {
  // One entry per request. Closed loop: from send to reply. Open loop:
  // from the request's due time to its reply, so time spent waiting for a
  // free worker counts.
  std::vector<int64_t> latency_ns;
  // Aligned with latency_ns, relative to the start: when the reply came
  // (closed loop) or when the request was due (open loop).
  std::vector<int64_t> at_ns;
  // Open loop only: how late the generator handed each request over.
  std::vector<int64_t> late_ns;
  // Sampled every 100 ms by the calling thread while the loop ran.
  std::vector<CpuTicks> cpu;
  size_t attempted = 0;
  size_t failed = 0;
  size_t windows = 0;  // whole windows the loop sent requests for,
                       // warm-up included
};

// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
int64_t Quantile(std::vector<int64_t> values, double q);

// A loop's figures over its `keep` quietest windows: requests per second,
// and latency quantiles over the requests those windows hold.
struct QuietFigures {
  double per_second = 0.0;
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  size_t samples = 0;        // requests in the kept windows
  // CPU time the process used in the kept windows, per request. Time the
  // hypervisor steals is not charged to it.
  double cpu_ns_per_request = 0.0;
  double steal_kept = 0.0;   // mean steal share of the kept windows
  double steal_all = 0.0;    // and of every window
};
QuietFigures Quietest(const LoopResult& loop, size_t keep);

// Closed loop: `clients` threads each send their next request as soon as
// the previous reply arrives (zero think time), for as long as `budget`
// says.
LoopResult RunClosedLoop(size_t clients, const Budget& budget,
                         const RequestFn& fn);

// Due times (offsets from the start, ascending) of a Poisson arrival
// process at `rate_per_s` over `duration_ns`, drawn from `seed`.
std::vector<int64_t> PoissonSchedule(double rate_per_s, int64_t duration_ns,
                                     uint64_t seed);

// Open loop: the calling thread hands request i to a queue at due_ns[i]
// whatever the state of earlier requests, for as long as `budget` says;
// `workers` threads serve the queue. Latency runs from the due time, never
// from when a worker picked the request up, so a stall's cost to the
// requests behind it counts.
LoopResult RunOpenLoop(const std::vector<int64_t>& due_ns, size_t workers,
                       const Budget& budget, const RequestFn& fn);

}  // namespace wfbench

#endif  // WFBENCH_LOOPS_H_
