#include "serve/front_door.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "platform/sentiment_miner_plugin.h"

namespace wf::serve {

using ::wf::common::Status;
using ::wf::platform::Deadline;

namespace {

// Wait chunk for deadline-bounded blocking: short enough that an infinite
// deadline still re-checks its predicate promptly, long enough not to spin.
constexpr uint64_t kWaitChunkUs = 20000;

// The result cache's lock stripes, and the AIMD steps (AimdOptions).
constexpr size_t kCacheStripes = 8;
constexpr double kAimdDecreaseFactor = 0.5;
constexpr size_t kAimdIncreaseStep = 1;

}  // namespace

FrontDoor::FrontDoor(const platform::SentimentQueryService* service,
                     platform::Cluster* cluster, FrontDoorOptions options)
    : service_(service), cluster_(cluster), options_(options) {
  {
    common::MutexLock lock(admit_mu_);
    limit_ = std::max<size_t>(1, options_.max_concurrent);
  }
  cache_.reserve(kCacheStripes);
  for (size_t i = 0; i < kCacheStripes; ++i) {
    cache_.push_back(std::make_unique<CacheStripe>());
  }
}

FrontDoor::~FrontDoor() = default;

void FrontDoor::Count(const std::string& name, uint64_t delta) const {
  if (metrics_ != nullptr) metrics_->GetCounter(name)->Add(delta);
}

void FrontDoor::SetGauge(const std::string& name, int64_t value) const {
  if (metrics_ != nullptr) metrics_->GetGauge(name)->Set(value);
}

void FrontDoor::RecordTiming(const std::string& name,
                             uint64_t value_us) const {
  if (metrics_ != nullptr) {
    metrics_
        ->GetHistogram(name, obs::DefaultLatencyBoundsUs(), /*timing=*/true)
        ->Record(value_us);
  }
}

// --- Quota ------------------------------------------------------------------

bool FrontDoor::QuotaAdmit(const std::string& tenant,
                           uint64_t* retry_after_us) {
  const uint64_t now = obs::MonotonicNowUs();
  common::MutexLock lock(quota_mu_);
  TokenBucket& bucket = buckets_[tenant];
  if (!bucket.initialized) {
    auto it = quota_overrides_.find(tenant);
    bucket.config =
        it != quota_overrides_.end() ? it->second : options_.default_quota;
    bucket.tokens = bucket.config.burst;
    bucket.last_refill_us = now;
    bucket.initialized = true;
  }
  if (bucket.config.tokens_per_second <= 0.0) return true;  // unlimited
  const double elapsed_s =
      static_cast<double>(now - bucket.last_refill_us) / 1e6;
  bucket.tokens = std::min(
      bucket.config.burst,
      bucket.tokens + elapsed_s * bucket.config.tokens_per_second);
  bucket.last_refill_us = now;
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  // The honest backpressure signal: exactly when the next token lands.
  *retry_after_us = static_cast<uint64_t>(
      (1.0 - bucket.tokens) / bucket.config.tokens_per_second * 1e6);
  return false;
}

void FrontDoor::SetTenantQuota(const std::string& tenant,
                               const TokenBucketConfig& config) {
  common::MutexLock lock(quota_mu_);
  quota_overrides_[tenant] = config;
  TokenBucket& bucket = buckets_[tenant];
  bucket.config = config;
  bucket.tokens = config.burst;
  bucket.last_refill_us = obs::MonotonicNowUs();
  bucket.initialized = true;
}

// --- Result cache -----------------------------------------------------------

FrontDoor::CacheStripe& FrontDoor::StripeFor(const std::string& key) {
  return *cache_[common::Fnv1a64(key) % cache_.size()];
}

bool FrontDoor::CacheLookup(const std::string& key, std::string* payload) {
  if (options_.cache_entries == 0) return false;
  CacheStripe& stripe = StripeFor(key);
  common::MutexLock lock(stripe.mu);
  for (CacheEntry& entry : stripe.entries) {
    if (entry.key != key) continue;
    entry.last_used = ++stripe.tick;
    *payload = entry.payload;
    return true;
  }
  return false;
}

void FrontDoor::CacheInsert(const std::string& key, std::string payload) {
  if (options_.cache_entries == 0) return;
  const size_t per_stripe =
      std::max<size_t>(1, options_.cache_entries / cache_.size());
  CacheStripe& stripe = StripeFor(key);
  common::MutexLock lock(stripe.mu);
  for (CacheEntry& entry : stripe.entries) {
    if (entry.key != key) continue;
    entry.payload = std::move(payload);
    entry.last_used = ++stripe.tick;
    return;
  }
  if (stripe.entries.size() >= per_stripe) {
    // Evict the stripe's least-recently-used entry (size-bounded cache:
    // the stripe never grows past its share of cache_entries).
    auto victim = std::min_element(
        stripe.entries.begin(), stripe.entries.end(),
        [](const CacheEntry& a, const CacheEntry& b) {
          return a.last_used < b.last_used;
        });
    *victim = CacheEntry{};
    victim->key = key;
    victim->payload = std::move(payload);
    victim->last_used = ++stripe.tick;
    Count("serve/cache_evictions_total");
    return;
  }
  CacheEntry entry;
  entry.key = key;
  entry.payload = std::move(payload);
  entry.last_used = ++stripe.tick;
  stripe.entries.push_back(std::move(entry));
}

void FrontDoor::InvalidateSubjects(const std::vector<std::string>& subjects) {
  // One polarity stands for the subject: the token's polarity part is fixed,
  // so equal tokens mean equal normalized subjects.
  auto token = [](const std::string& subject) {
    return platform::SentimentConceptToken(subject,
                                           lexicon::Polarity::kPositive);
  };
  std::set<std::string> tokens;
  for (const std::string& subject : subjects) tokens.insert(token(subject));
  size_t dropped = 0;
  for (auto& stripe : cache_) {
    common::MutexLock lock(stripe->mu);
    dropped += std::erase_if(stripe->entries, [&](const CacheEntry& entry) {
      return tokens.count(token(entry.key)) > 0;
    });
  }
  if (dropped > 0) Count("serve/cache_invalidated_total", dropped);
}

void FrontDoor::InvalidateAll() {
  size_t dropped = 0;
  for (auto& stripe : cache_) {
    common::MutexLock lock(stripe->mu);
    dropped += stripe->entries.size();
    stripe->entries.clear();
  }
  if (dropped > 0) Count("serve/cache_invalidated_total", dropped);
}

// --- Admission --------------------------------------------------------------

uint64_t FrontDoor::EstimateRetryAfterLocked() const {
  // Cold door: nothing observed yet, fall back to the configured constant.
  if (completed_total_ == 0 || ewma_exec_us_ <= 0.0) {
    return options_.shed_retry_after_us;
  }
  // Everyone queued ahead plus one service interval, drained across the
  // current execution lanes at the recent per-query service time.
  const double waiting = static_cast<double>(queued_[0] + queued_[1] + 1);
  const double lanes = static_cast<double>(std::max<size_t>(1, limit_));
  const double drain_us = ewma_exec_us_ * waiting / lanes;
  return static_cast<uint64_t>(std::clamp(drain_us, 1000.0, 5e6));
}

ShedReason FrontDoor::Admit(Priority priority, const Deadline& deadline,
                            uint64_t* queue_wait_us,
                            uint64_t* retry_after_us) {
  const uint64_t start = obs::MonotonicNowUs();
  const size_t idx = priority == Priority::kInteractive ? 0 : 1;
  std::unique_lock<common::Mutex> lock(admit_mu_);
  // Batch admission additionally defers to any queued interactive request,
  // so under pressure interactive traffic drains first. `limit_` is the
  // AIMD-adapted slot count (== max_concurrent with AIMD off).
  auto can_run = [&] {
    return inflight_ < limit_ && (idx == 0 || queued_[0] == 0);
  };
  if (!can_run()) {
    const size_t limit = idx == 0 ? options_.interactive_queue_limit
                                  : options_.batch_queue_limit;
    if (queued_[idx] >= limit) {
      // The waiting room is full: shed *now*. A request we cannot serve in
      // time must cost the caller a fast refusal, not a queue slot — with a
      // retry-after that reflects how long this queue actually takes to
      // drain, not a constant.
      *queue_wait_us = obs::MonotonicNowUs() - start;
      *retry_after_us = EstimateRetryAfterLocked();
      return ShedReason::kQueueFull;
    }
    ++queued_[idx];
    SetGauge(idx == 0 ? "serve/queued_interactive" : "serve/queued_batch",
             static_cast<int64_t>(queued_[idx]));
    while (!can_run()) {
      const uint64_t remaining = deadline.RemainingUs();
      if (remaining == 0) {
        --queued_[idx];
        SetGauge(idx == 0 ? "serve/queued_interactive" : "serve/queued_batch",
                 static_cast<int64_t>(queued_[idx]));
        admit_cv_.notify_all();  // a batch waiter may now be unblocked
        *queue_wait_us = obs::MonotonicNowUs() - start;
        return ShedReason::kDeadlineBeforeExecute;
      }
      admit_cv_.wait_for(
          lock, std::chrono::microseconds(std::min(remaining, kWaitChunkUs)));
    }
    --queued_[idx];
    SetGauge(idx == 0 ? "serve/queued_interactive" : "serve/queued_batch",
             static_cast<int64_t>(queued_[idx]));
    if (idx == 0) admit_cv_.notify_all();  // interactive queue may be empty
  }
  ++inflight_;
  SetGauge("serve/inflight", static_cast<int64_t>(inflight_));
  *queue_wait_us = obs::MonotonicNowUs() - start;
  return ShedReason::kNone;
}

void FrontDoor::Release(uint64_t exec_us, uint64_t e2e_us) {
  std::unique_lock<common::Mutex> lock(admit_mu_);
  --inflight_;
  SetGauge("serve/inflight", static_cast<int64_t>(inflight_));
  // Service-rate EWMA (alpha 0.2), kept whether or not AIMD is on: the
  // drain-time retry-after estimate needs it either way.
  ewma_exec_us_ = completed_total_ == 0
                      ? static_cast<double>(exec_us)
                      : ewma_exec_us_ + 0.2 * (static_cast<double>(exec_us) -
                                               ewma_exec_us_);
  ++completed_total_;
  const AimdOptions& aimd = options_.aimd;
  if (aimd.enabled) {
    window_latencies_us_.push_back(e2e_us);
    if (window_latencies_us_.size() >= std::max<size_t>(1, aimd.window)) {
      // Near-p99 of the decision window (exact for windows <= 100).
      std::vector<uint64_t>& w = window_latencies_us_;
      const size_t rank = std::min(w.size() - 1, (w.size() * 99) / 100);
      std::nth_element(w.begin(), w.begin() + static_cast<long>(rank),
                       w.end());
      const uint64_t p99_us = w[rank];
      const size_t floor = std::max<size_t>(1, aimd.min_limit);
      const size_t ceiling = std::max(floor, options_.max_concurrent);
      if (p99_us > aimd.target_p99_us) {
        // Multiplicative decrease: the backend is past its knee, so shed
        // concurrency fast. Counted even when pinned at the floor — the
        // counter is the controller's decision trail, not a change log.
        limit_ = std::clamp(
            static_cast<size_t>(static_cast<double>(limit_) *
                                kAimdDecreaseFactor),
            floor, ceiling);
        Count("serve/aimd_decrease_total");
      } else {
        // Additive increase: probe for headroom one step at a time.
        limit_ = std::clamp(limit_ + kAimdIncreaseStep, floor, ceiling);
        Count("serve/aimd_increase_total");
      }
      SetGauge("serve/concurrency_limit", static_cast<int64_t>(limit_));
      w.clear();
    }
  }
  admit_cv_.notify_all();
}

// --- Flights (coalescing) ---------------------------------------------------

void FrontDoor::PublishFlight(const std::string& key,
                              const std::shared_ptr<Flight>& flight,
                              const common::Status& status,
                              std::string payload) {
  {
    // Retire the flight *before* publishing: a new identical query arriving
    // after this point starts fresh (or hits the cache) instead of joining
    // a finished flight. Followers keep their shared_ptr, so erasing the
    // map entry never invalidates their wait.
    common::MutexLock lock(flight_mu_);
    flights_.erase(key);
  }
  {
    common::MutexLock lock(flight->mu);
    flight->done = true;
    flight->published_status = status;
    flight->published_payload = std::move(payload);
  }
  flight->cv.notify_all();
}

QueryReply FrontDoor::ExecuteAndPublish(const QueryRequest& request,
                                        const Deadline& deadline,
                                        const std::string& key,
                                        const std::shared_ptr<Flight>& flight) {
  QueryReply reply;
  const ShedReason shed = Admit(request.priority, deadline,
                                &reply.queue_wait_us, &reply.retry_after_us);
  RecordTiming("serve/queue_wait_us", reply.queue_wait_us);
  if (shed != ShedReason::kNone) {
    reply.shed_reason = shed;
    if (shed == ShedReason::kQueueFull) {
      Count("serve/shed_queue_full_total");
      // retry_after_us was set by Admit: the drain-time estimate.
      reply.status = Status::Unavailable("front door queue full");
    } else {
      Count("serve/shed_deadline_total");
      reply.status = Status::DeadlineExceeded(
          "deadline expired in admission queue");
    }
    PublishFlight(key, flight, reply.status, "");
    return reply;
  }
  Count("serve/admitted_total");
  const uint64_t exec_start_us = obs::MonotonicNowUs();
  platform::SentimentQueryResult result =
      service_->Query(request.subject, options_.max_hits, deadline);
  const uint64_t exec_us = obs::MonotonicNowUs() - exec_start_us;
  Release(exec_us, reply.queue_wait_us + exec_us);
  if (result.deadline_expired) Count("serve/deadline_expired_results_total");
  reply.status = Status::Ok();
  reply.payload = platform::EncodeQueryResult(result);
  // Only complete answers are cached: a hit can then never replay bytes
  // degraded by faults or deadline truncation, which is what keeps
  // post-overload responses byte-identical to an unloaded run.
  if (result.complete()) {
    CacheInsert(key, reply.payload);
  }
  PublishFlight(key, flight, reply.status, reply.payload);
  return reply;
}

// --- The pipeline -----------------------------------------------------------

QueryReply FrontDoor::Query(const QueryRequest& request) {
  const uint64_t started = obs::MonotonicNowUs();
  Count("serve/requests_total");
  const Deadline deadline = Deadline::After(
      request.budget_us > 0 ? request.budget_us : options_.default_budget_us);

  QueryReply reply;
  // 1. Quota: the cheapest check first — an over-quota tenant costs one
  //    map lookup, nothing shared with other tenants.
  if (!QuotaAdmit(request.tenant, &reply.retry_after_us)) {
    Count("serve/shed_quota_total");
    reply.shed_reason = ShedReason::kQuotaExceeded;
    reply.status = Status::Unavailable("tenant quota exceeded");
    return reply;
  }

  // 2. Result cache.
  const std::string& key = request.subject;
  if (CacheLookup(key, &reply.payload)) {
    Count("serve/cache_hits_total");
    reply.cache_hit = true;
    RecordTiming("serve/latency_us", obs::MonotonicNowUs() - started);
    return reply;
  }
  Count("serve/cache_misses_total");

  // 3. Coalesce: find-or-insert the in-flight execution for this key.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    common::MutexLock lock(flight_mu_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_[key] = flight;
      leader = true;
    }
  }

  if (!leader) {
    // Follower: wait (deadline-bounded) for the leader's published reply.
    Count("serve/coalesced_total");
    reply.coalesced = true;
    std::unique_lock<common::Mutex> lock(flight->mu);
    while (!flight->done) {
      const uint64_t remaining = deadline.RemainingUs();
      if (remaining == 0) {
        Count("serve/shed_deadline_total");
        reply.shed_reason = ShedReason::kDeadlineBeforeExecute;
        reply.status = Status::DeadlineExceeded(
            "deadline expired waiting on coalesced query");
        return reply;
      }
      flight->cv.wait_for(
          lock, std::chrono::microseconds(std::min(remaining, kWaitChunkUs)));
    }
    reply.status = flight->published_status;
    reply.payload = flight->published_payload;
    RecordTiming("serve/latency_us", obs::MonotonicNowUs() - started);
    return reply;
  }

  // Leader double-check: between our cache miss and winning the flight, a
  // previous leader may have cached its answer and retired its flight (it
  // inserts into the cache strictly before erasing the flight, so whenever
  // the flight is gone the entry is visible). Re-checking here closes the
  // race where a second leader would re-execute a query the cache already
  // answers — the property coalescing tests pin down.
  if (CacheLookup(key, &reply.payload)) {
    Count("serve/cache_hits_total");
    reply.cache_hit = true;
    PublishFlight(key, flight, Status::Ok(), reply.payload);
    RecordTiming("serve/latency_us", obs::MonotonicNowUs() - started);
    return reply;
  }

  // 4+5. Leader: admission, execution, publication.
  reply = ExecuteAndPublish(request, deadline, key, flight);
  RecordTiming("serve/latency_us", obs::MonotonicNowUs() - started);
  return reply;
}

// --- Bus endpoint -----------------------------------------------------------

common::Status FrontDoor::RegisterService() {
  return cluster_->bus().RegisterService(
      "app/front_door", [this](const std::string& request) {
        QueryRequest query;
        query.subject = platform::GetMessageField(request, "subject");
        query.tenant = platform::GetMessageField(request, "tenant");
        if (platform::GetMessageField(request, "priority") == "batch") {
          query.priority = Priority::kBatch;
        }
        // A budget that is not an unsigned integer is refused before
        // admission: no query runs on a budget the caller did not mean.
        std::string budget = platform::GetMessageField(request, "budget_us");
        QueryReply reply;
        if (!budget.empty() &&
            !common::ParseUint64(budget, &query.budget_us)) {
          reply.status = common::Status::InvalidArgument(
              "budget_us is not an unsigned integer: " + budget);
        } else {
          reply = Query(query);
        }
        std::vector<std::pair<std::string, std::string>> out;
        out.emplace_back("code",
                         common::StrFormat("%d", static_cast<int>(
                                                     reply.status.code())));
        out.emplace_back("shed", common::StrFormat(
                                     "%d", static_cast<int>(reply.shed_reason)));
        out.emplace_back(
            "retry_after_us",
            common::StrFormat("%llu", static_cast<unsigned long long>(
                                          reply.retry_after_us)));
        out.emplace_back("cache_hit", reply.cache_hit ? "1" : "0");
        out.emplace_back("coalesced", reply.coalesced ? "1" : "0");
        if (reply.status.ok()) {
          out.emplace_back("payload", reply.payload);
        } else {
          out.emplace_back("error", reply.status.ToString());
        }
        return platform::EncodeMessage(out);
      });
}

}  // namespace wf::serve
