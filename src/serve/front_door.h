#ifndef WF_SERVE_FRONT_DOOR_H_
#define WF_SERVE_FRONT_DOOR_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "platform/cluster.h"
#include "platform/deadline.h"
#include "platform/query_service.h"

namespace wf::obs {
class MetricsRegistry;
class Tracer;
}  // namespace wf::obs

namespace wf::serve {

// Priority classes for admission. Interactive traffic is admitted ahead of
// batch whenever both are queued; batch is the first thing shed under
// pressure, so a background crawl can never starve a dashboard.
enum class Priority { kInteractive = 0, kBatch = 1 };

// Why a request was shed (reply.status is Unavailable or DeadlineExceeded
// when one of these is set). Shedding is always explicit and early — the
// front door's contract is an honest fast "no" instead of a slow hang.
enum class ShedReason {
  kNone = 0,
  kQueueFull,           // the priority class's admission queue was full
  kQuotaExceeded,       // the tenant's token bucket was empty
  kDeadlineBeforeExecute,  // the budget expired while queued or coalesced
};

// Per-tenant token bucket: `tokens_per_second` refill toward `burst`
// capacity; each admitted query spends one token. A zero rate disables
// quota enforcement (the default tenant policy unless overridden).
struct TokenBucketConfig {
  double tokens_per_second = 0.0;
  double burst = 1.0;
};

// AIMD adaptive concurrency (DESIGN.md §14): instead of a hand-tuned fixed
// `max_concurrent`, the door steers its execution-slot limit by the
// completion latency it actually observes. Every `window` completions it
// takes the window's near-p99: above `target_p99_us` the limit is halved
// (backpressure the moment the backend slows down), at or below it the
// limit grows by one, clamped to
// [min_limit, FrontDoorOptions::max_concurrent]. The decision trail is
// `serve/concurrency_limit` (gauge), `serve/aimd_increase_total`, and
// `serve/aimd_decrease_total`. Disabled by default: the limit then stays
// pinned at max_concurrent and no AIMD metrics appear.
struct AimdOptions {
  bool enabled = false;
  // End-to-end (queue + execute) p99 the controller steers toward.
  uint64_t target_p99_us = 50000;
  // Floor for the adaptive limit; the ceiling is max_concurrent.
  size_t min_limit = 1;
  // Completions per controller decision.
  size_t window = 32;
};

struct FrontDoorOptions {
  // Queries executing concurrently against the cluster; the AIMD ceiling
  // when `aimd.enabled`. Everything beyond the (possibly adapted) limit
  // waits in the bounded admission queue (or is shed).
  size_t max_concurrent = 4;
  // Adaptive concurrency control (off by default).
  AimdOptions aimd;
  // Bounded waiting-room sizes per priority class; arrivals beyond the
  // bound are shed kQueueFull immediately.
  size_t interactive_queue_limit = 64;
  size_t batch_queue_limit = 16;
  // End-to-end budget applied when a request carries none.
  uint64_t default_budget_us = 250000;
  // retry_after_us attached to kQueueFull sheds while the door is cold (no
  // completion history yet). Once queries have completed, the hint is an
  // estimate of the actual drain time — queue depth over the recent
  // service rate — instead of this constant.
  uint64_t shed_retry_after_us = 50000;
  // Result cache capacity (entries, across all stripes; 0 disables).
  size_t cache_entries = 128;
  // Quota applied to tenants without an explicit SetTenantQuota override.
  TokenBucketConfig default_quota;
  // max_hits forwarded to SentimentQueryService::Query.
  size_t max_hits = 50;
};

struct QueryRequest {
  std::string subject;
  std::string tenant;  // "" shares the anonymous bucket
  Priority priority = Priority::kInteractive;
  // End-to-end budget in microseconds; 0 = FrontDoorOptions default.
  uint64_t budget_us = 0;
};

struct QueryReply {
  common::Status status = common::Status::Ok();
  // The rendered sentiment answer (platform::EncodeQueryResult, the bytes
  // the app/sentiment_query service replies) — a pure function of the
  // query result, so identical results render identical bytes.
  std::string payload;
  ShedReason shed_reason = ShedReason::kNone;
  // With a shed: when the caller should retry (its backpressure signal).
  uint64_t retry_after_us = 0;
  bool cache_hit = false;
  bool coalesced = false;  // waited on another caller's identical query
  uint64_t queue_wait_us = 0;
};

// The query front door (tentpole of the serving layer): everything between
// an application and Cluster sentiment queries goes through here.
//
//   Query ──► quota ──► cache ──► coalesce ──► admission ──► execute
//
// Guarantees under overload:
//   * Bounded queues — beyond them requests are shed *immediately* with
//     Unavailable + retry_after_us, never parked on an unbounded wait.
//   * Every wait is deadline-bounded; a request whose budget expires while
//     queued is shed without ever reaching the cluster, and the budget it
//     entered with is the exact budget its downstream calls inherit.
//   * Identical concurrent queries coalesce onto one upstream execution;
//     followers receive byte-identical payloads.
//   * Only complete() results are cached, so a cache hit can never serve
//     bytes degraded by faults or deadline truncation; a re-mine
//     invalidates entries by the subjects whose sentiment it changed.
//
// Threading: caller-runs. The front door spawns no threads — callers block
// (deadline-bounded) in admission and execute their own queries, so
// concurrency is whatever the callers bring.
class FrontDoor {
 public:
  // `service` and `cluster` must outlive the front door; the cluster is
  // only used for bus registration and re-mine invalidation hooks.
  FrontDoor(const platform::SentimentQueryService* service,
            platform::Cluster* cluster, FrontDoorOptions options);
  ~FrontDoor();
  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  // Serves one query end to end (see class comment for the pipeline).
  // Never blocks past the request's budget.
  QueryReply Query(const QueryRequest& request);

  // Registers "app/front_door" on the cluster bus:
  //   request:  subject=<s> [tenant=<t>] [priority=interactive|batch]
  //             [budget_us=<n>]
  //   response: status=<code> shed=<reason> retry_after_us=<n>
  //             payload=<rendered answer>  (on success)
  common::Status RegisterService();

  // Cache invalidation. InvalidateSubjects drops every entry whose subject
  // names the same sentiment concept tokens as one of `subjects` (the index
  // normalization, platform::SentimentConceptToken: "KODAK" and "kodak"
  // read the same postings), so a re-mine that adds or removes a subject's
  // mentions — including in a document no cached answer read — cannot
  // leave a stale answer. InvalidateAll clears everything (the blunt hook
  // for a full re-mine).
  void InvalidateSubjects(const std::vector<std::string>& subjects);
  void InvalidateAll();

  // Overrides the default quota for one tenant (takes effect on its next
  // refill; an existing bucket's balance is reset to the new burst).
  void SetTenantQuota(const std::string& tenant,
                      const TokenBucketConfig& config);

  // Attaches a registry for serve/* metrics; nullptr detaches. The
  // registry must outlive its attachment.
  void AttachMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  const FrontDoorOptions& options() const { return options_; }

 private:
  // One in-flight execution that identical queries attach to. The leader
  // runs the query; followers wait (deadline-bounded) for `done` and copy
  // the published reply.
  struct Flight {
    common::Mutex mu;
    std::condition_variable_any cv;
    bool done WF_GUARDED_BY(mu) = false;
    common::Status published_status WF_GUARDED_BY(mu) = common::Status::Ok();
    std::string published_payload WF_GUARDED_BY(mu);
  };

  // Lock-striped LRU result cache: small striped vectors, linear scan, LRU
  // tick per stripe. Keys are the caller's raw subject, because the payload
  // echoes its spelling.
  struct CacheEntry {
    std::string key;
    std::string payload;
    uint64_t last_used = 0;
  };
  struct CacheStripe {
    common::Mutex mu;
    std::vector<CacheEntry> entries WF_GUARDED_BY(mu);
    uint64_t tick WF_GUARDED_BY(mu) = 0;
  };

  struct TokenBucket {
    TokenBucketConfig config;
    double tokens = 0.0;
    uint64_t last_refill_us = 0;
    bool initialized = false;
  };

  CacheStripe& StripeFor(const std::string& key);
  bool CacheLookup(const std::string& key, std::string* payload);
  void CacheInsert(const std::string& key, std::string payload);

  // Token-bucket check; on refusal returns false and sets *retry_after_us.
  bool QuotaAdmit(const std::string& tenant, uint64_t* retry_after_us);

  // Blocks (deadline-bounded) until an execution slot is free. Returns
  // kNone on admission, else the shed reason; *queue_wait_us reports the
  // time spent waiting either way. On kQueueFull, *retry_after_us carries
  // the drain-time estimate (EstimateRetryAfterLocked).
  ShedReason Admit(Priority priority, const platform::Deadline& deadline,
                   uint64_t* queue_wait_us, uint64_t* retry_after_us);
  // Frees the execution slot and feeds the completion into the service-rate
  // EWMA and (when enabled) the AIMD controller. `exec_us` is the upstream
  // execution time alone; `e2e_us` adds the admission wait — the latency
  // the caller actually experienced, which is what AIMD steers on.
  void Release(uint64_t exec_us, uint64_t e2e_us);
  // Honest kQueueFull backpressure: how long until the queue ahead of a
  // new arrival drains at the recently observed service rate, clamped to
  // [1ms, 5s]; the static shed_retry_after_us while the door is cold.
  uint64_t EstimateRetryAfterLocked() const WF_REQUIRES(admit_mu_);

  // Executes the query as flight leader and publishes the reply.
  QueryReply ExecuteAndPublish(const QueryRequest& request,
                               const platform::Deadline& deadline,
                               const std::string& key,
                               const std::shared_ptr<Flight>& flight);
  // Fails a flight the leader is abandoning (shed/expired) so followers
  // wake immediately instead of timing out.
  void PublishFlight(const std::string& key,
                     const std::shared_ptr<Flight>& flight,
                     const common::Status& status, std::string payload);

  void Count(const std::string& name, uint64_t delta = 1) const;
  void SetGauge(const std::string& name, int64_t value) const;
  void RecordTiming(const std::string& name, uint64_t value_us) const;

  const platform::SentimentQueryService* service_;
  platform::Cluster* cluster_;
  const FrontDoorOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Stripe set is fixed at construction; each stripe locks itself.
  std::vector<std::unique_ptr<CacheStripe>> cache_;

  // Admission state: execution slots and per-priority waiting counts.
  common::Mutex admit_mu_;
  std::condition_variable_any admit_cv_;
  size_t inflight_ WF_GUARDED_BY(admit_mu_) = 0;
  size_t queued_[2] WF_GUARDED_BY(admit_mu_) = {0, 0};
  // Current execution-slot limit: max_concurrent when AIMD is off, the
  // adaptive value in [aimd.min_limit, max_concurrent] when on.
  size_t limit_ WF_GUARDED_BY(admit_mu_);
  // Completion bookkeeping: service-time EWMA (drain-rate estimates) and
  // the AIMD decision window of end-to-end latencies.
  double ewma_exec_us_ WF_GUARDED_BY(admit_mu_) = 0.0;
  uint64_t completed_total_ WF_GUARDED_BY(admit_mu_) = 0;
  std::vector<uint64_t> window_latencies_us_ WF_GUARDED_BY(admit_mu_);

  common::Mutex flight_mu_;
  std::map<std::string, std::shared_ptr<Flight>> flights_
      WF_GUARDED_BY(flight_mu_);

  common::Mutex quota_mu_;
  std::map<std::string, TokenBucket> buckets_ WF_GUARDED_BY(quota_mu_);
  std::map<std::string, TokenBucketConfig> quota_overrides_
      WF_GUARDED_BY(quota_mu_);
};

}  // namespace wf::serve

#endif  // WF_SERVE_FRONT_DOOR_H_
