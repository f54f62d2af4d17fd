#include "platform/vinci.h"
// wflint: allow(platform-raw-thread) — the hedged gather's sick lane runs a
// suspect target's primary on its own detached thread, so a straggler never
// holds one of the scatter pool's workers (DESIGN.md §14).

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "platform/deadline.h"
#include "platform/fault.h"
#include "platform/health.h"
#include "platform/mine_executor.h"

namespace wf::platform {

using ::wf::common::Status;
using ::wf::common::StatusCode;

namespace {

// Backoff growth per retry (CallOptions), and the latency quantile a hedge
// fires at (HedgeOptions): the slowest ~5% of calls are hedged.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kHedgeDelayQuantile = 0.95;

size_t ScatterThreads() {
  size_t hw = std::thread::hardware_concurrency();
  return std::min<size_t>(8, std::max<size_t>(2, hw));
}

}  // namespace

VinciBus::VinciBus() = default;
VinciBus::~VinciBus() { Shutdown(); }

VinciBus::DispatchGuard::DispatchGuard(const VinciBus& bus) : bus_(bus) {
  common::MutexLock lock(bus_.dispatch_mu_);
  ++bus_.active_dispatches_;
}

VinciBus::DispatchGuard::~DispatchGuard() {
  // Notify under the lock: a sick-lane thread runs this with nobody joining
  // it, and once the count reads zero and the lock is free, Shutdown may
  // return and the bus be destroyed. Nothing may touch the bus after the
  // unlock.
  common::MutexLock lock(bus_.dispatch_mu_);
  if (--bus_.active_dispatches_ == 0) bus_.dispatch_cv_.notify_all();
}

void VinciBus::QuiesceDispatches() const WF_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<common::Mutex> lock(dispatch_mu_);
  dispatch_cv_.wait(lock, [&] { return active_dispatches_ == 0; });
}

void VinciBus::AttachFaultInjector(FaultInjector* injector) {
  fault_injector_.store(injector, std::memory_order_release);
  QuiesceDispatches();
}

void VinciBus::AttachMetrics(obs::MetricsRegistry* metrics) {
  metrics_.store(metrics, std::memory_order_release);
  QuiesceDispatches();
}

void VinciBus::AttachHealth(HealthScoreboard* health) {
  health_.store(health, std::memory_order_release);
  QuiesceDispatches();
}

void VinciBus::AttachTracer(obs::Tracer* tracer) {
  tracer_.store(tracer, std::memory_order_release);
  QuiesceDispatches();
}

void VinciBus::Shutdown() {
  std::unique_ptr<MineExecutor> pool;
  {
    common::MutexLock lock(pool_mu_);
    pool = std::move(pool_);
  }
  // Joined outside pool_mu_: a straggler running a nested scatter takes
  // pool_mu_ in EnsurePool, and joining it while holding the lock would
  // deadlock. Unstarted detached tasks are dropped by the pool destructor.
  pool.reset();
  QuiesceDispatches();
}

common::Status VinciBus::RegisterService(const std::string& name,
                                         Handler handler) {
  common::MutexLock lock(mu_);
  auto [it, inserted] = services_.emplace(name, std::move(handler));
  if (!inserted) return Status::AlreadyExists("service exists: " + name);
  return Status::Ok();
}

common::Status VinciBus::UnregisterService(const std::string& name) {
  common::MutexLock lock(mu_);
  if (services_.erase(name) == 0) {
    return Status::NotFound("no service: " + name);
  }
  return Status::Ok();
}

void VinciBus::SimulateLatency(uint64_t extra_us) const {
  uint64_t us = simulated_latency_us_.load(std::memory_order_relaxed) +
                extra_us;
  if (us == 0) return;
  // Sleeping (rather than spinning) lets concurrent scattered calls overlap
  // their simulated round trips, as real in-flight RPCs do.
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void VinciBus::Count(const std::string& name, uint64_t delta) const {
  if (obs::MetricsRegistry* m = metrics_.load(std::memory_order_acquire)) {
    m->GetCounter(name)->Add(delta);
  }
}

void VinciBus::SetBreakerGauge(const std::string& service,
                               int64_t state) const {
  if (obs::MetricsRegistry* m = metrics_.load(std::memory_order_acquire)) {
    m->GetGauge("vinci/breaker/state/" + service)->Set(state);
  }
}

void VinciBus::RecordOutcome(const std::string& service, bool ok) const {
  common::MutexLock lock(breaker_mu_);
  Breaker& b = breakers_[service];
  if (ok) {
    if (b.open) {
      // Successful half-open probe: the circuit closes.
      Count("vinci/breaker/close_total");
      SetBreakerGauge(service, 0);
    }
    b = Breaker{};  // success closes the circuit and clears the streak
    return;
  }
  ++b.consecutive_failures;
  if (b.open) {
    b.rejections = 0;  // failed half-open probe: new rejection window
    Count("vinci/breaker/open_total");
    SetBreakerGauge(service, 1);
  } else if (breaker_config_.failure_threshold > 0 &&
             b.consecutive_failures >= breaker_config_.failure_threshold) {
    b.open = true;
    b.rejections = 0;
    Count("vinci/breaker/open_total");
    SetBreakerGauge(service, 1);
  }
}

common::Result<std::string> VinciBus::CallOnce(const std::string& service,
                                               const std::string& request,
                                               bool* breaker_rejected,
                                               bool feed_breaker) const {
  // Entered before any attachment pointer is loaded, so the quiescing
  // Attach* setters can guarantee the old pointer has no remaining reader.
  DispatchGuard dispatch_guard(*this);
  *breaker_rejected = false;
  // Client-side child span: only requests that carry trace context (see
  // AppendContext) produce one, so untraced traffic stays span-free and
  // identically-seeded traced runs replay the exact same span set.
  obs::Span span;
  if (obs::Tracer* tracer = tracer_.load(std::memory_order_acquire)) {
    obs::SpanContext parent;
    parent.trace_id = obs::IdFromHex(GetMessageField(request, obs::kTraceIdKey));
    parent.span_id = obs::IdFromHex(GetMessageField(request, obs::kSpanIdKey));
    span = tracer->StartSpan(parent, service);
  }
  auto finish = [&span, this, &service](const char* status,
                                        common::Result<std::string> result) {
    if (span.active()) span.SetAttr("status", status);
    if (!result.ok()) Count("vinci/failures/" + service);
    return result;
  };
  {
    common::MutexLock lock(breaker_mu_);
    Breaker& b = breakers_[service];
    if (!feed_breaker) {
      // Hedge attempts observe the breaker without driving it: an open
      // circuit still refuses them, but they neither consume rejection-
      // window slots nor act as the half-open probe — a hedged run must
      // walk the breaker through the exact same state sequence as the
      // unhedged one.
      if (b.open) {
        *breaker_rejected = true;
        if (span.active()) {
          span.SetAttr("status", "rejected");
          span.SetAttr("breaker", "open");
        }
        return Status::Unavailable("circuit open: " + service);
      }
    } else if (b.open && b.rejections < breaker_config_.open_rejections) {
      ++b.rejections;
      *breaker_rejected = true;
      Count("vinci/breaker/rejected/" + service);
      if (span.active()) {
        span.SetAttr("status", "rejected");
        span.SetAttr("breaker", "open");
      }
      return Status::Unavailable("circuit open: " + service);
    } else if (b.open) {
      // Circuit open with the rejection window spent: fall through as the
      // half-open probe.
      Count("vinci/breaker/half_open_total");
      SetBreakerGauge(service, 2);
    }
  }
  // End-to-end deadline gate, stage 1: a request whose budget is already
  // spent is refused before it costs a simulated round trip or a handler
  // dispatch. Deadline refusals never feed the breaker — the service is not
  // sick, the caller is late.
  const Deadline deadline = DeadlineFromRequest(request);
  if (!deadline.infinite() && deadline.expired()) {
    Count("vinci/deadline_rejected_total");
    Count("vinci/deadline_rejected/" + service);
    return finish("deadline_expired", Status::DeadlineExceeded(
                                          "deadline expired before dispatch: " +
                                          service));
  }
  // Service resolution is a local registry lookup — a miss costs no
  // simulated network round trip and says nothing about service health.
  Handler handler;
  {
    common::MutexLock lock(mu_);
    auto it = services_.find(service);
    if (it == services_.end()) {
      if (span.active()) span.SetAttr("status", "not_found");
      return Status::NotFound("no service: " + service);
    }
    handler = it->second;
    ++call_counts_[service];
  }
  Count("vinci/calls/" + service);
  obs::Histogram* latency = nullptr;
  if (obs::MetricsRegistry* m = metrics_.load(std::memory_order_acquire)) {
    latency = m->GetHistogram("vinci/latency_us/" + service,
                              obs::DefaultLatencyBoundsUs(), /*timing=*/true);
  }
  obs::ScopedTimer timer(latency);
  // Health feed: every dispatched attempt (hedges included) reports its
  // observed latency and whether the failure was the service's fault. The
  // scoreboard never touches the metrics registry here, so deterministic
  // exports stay byte-stable (see HealthScoreboard's determinism note).
  auto feed_health = [this, &service, &timer](bool ok) {
    if (HealthScoreboard* h = health_.load(std::memory_order_acquire)) {
      h->RecordCall(service, timer.ElapsedUs(), ok);
    }
  };
  uint64_t extra_latency_us = 0;
  bool corrupt_response = false;
  if (FaultInjector* injector =
          fault_injector_.load(std::memory_order_acquire)) {
    FaultInjector::Decision d = injector->Decide(service);
    if (d.action == FaultInjector::Decision::Action::kUnavailable) {
      if (feed_breaker) RecordOutcome(service, false);
      feed_health(false);
      return finish("unavailable",
                    Status::Unavailable("injected unavailable: " + service));
    }
    corrupt_response = d.action == FaultInjector::Decision::Action::kCorrupt;
    extra_latency_us = d.extra_latency_us;
  }
  SimulateLatency(extra_latency_us);
  // Deadline gate, stage 2: the simulated round trip (plus injected
  // straggler latency) may have consumed the rest of the budget — a real
  // server re-checks on arrival, before doing any work. One clock read
  // decides both the gate and the audit below, so the invariant "no handler
  // ever starts past its deadline" is race-free and provable from metrics.
  const bool expired_at_dispatch =
      !deadline.infinite() &&
      obs::MonotonicNowUs() >= deadline.expires_at_us();
  if (expired_at_dispatch) {
    Count("vinci/deadline_rejected_total");
    Count("vinci/deadline_rejected/" + service);
    // The service burned the whole budget in flight — the gray-failure
    // signature — so this does count against its health, unlike the
    // stage-1 refusal (where the caller arrived already late).
    feed_health(false);
    return finish("deadline_expired",
                  Status::DeadlineExceeded("deadline expired in flight: " +
                                           service));
  }
  // The handler runs outside the bus lock so services may call each other.
  std::string response = handler(request);
  if (expired_at_dispatch) {
    // Tripwire, not control flow: unreachable while the gate above stands,
    // so the overload acceptance test can assert zero deadline-expired
    // handler executions from metrics alone — and a refactor that drops
    // the gate turns that assertion red instead of silently burning work.
    Count("vinci/deadline_expired_handler_runs_total");
  }
  if (corrupt_response) {
    // Real Vinci frames carry end-to-end checksums; a mangled response is
    // detected at the client, not silently consumed.
    if (feed_breaker) RecordOutcome(service, false);
    feed_health(false);
    return finish("corruption",
                  Status::Corruption("response checksum mismatch: " + service));
  }
  if (feed_breaker) RecordOutcome(service, true);
  feed_health(true);
  return finish("ok", std::move(response));
}

common::Result<std::string> VinciBus::Call(const std::string& service,
                                           const std::string& request,
                                           const CallOptions& options) const {
  if (options.deadline_us == 0 && options.max_retries == 0) {
    // A plain call keeps the plain metric footprint (no per-call retry
    // histogram), so deadline-free callers' golden exports are untouched.
    bool breaker_rejected = false;
    return CallOnce(service, request, &breaker_rejected);
  }
  const uint64_t start_us = obs::MonotonicNowUs();
  auto elapsed_us = [start_us] { return obs::MonotonicNowUs() - start_us; };
  // Retries actually performed, recorded on every exit path so the
  // distribution covers successes, exhausted budgets, and deadline cuts.
  auto record_retries = [this, &service](int retries) {
    if (obs::MetricsRegistry* m = metrics_.load(std::memory_order_acquire)) {
      m->GetHistogram("vinci/retries_per_call", obs::DefaultRetryBounds(),
                      /*timing=*/false)
          ->Record(static_cast<uint64_t>(retries));
      if (retries > 0) {
        m->GetCounter("vinci/retry_total/" + service)
            ->Add(static_cast<uint64_t>(retries));
      }
    }
  };
  double backoff_us = static_cast<double>(options.initial_backoff_us);
  for (int attempt = 0;; ++attempt) {
    if (options.deadline_us > 0 && elapsed_us() >= options.deadline_us) {
      record_retries(attempt);
      return Status::DeadlineExceeded("deadline exceeded calling " + service);
    }
    bool breaker_rejected = false;
    auto result = CallOnce(service, request, &breaker_rejected);
    if (options.deadline_us > 0 && elapsed_us() > options.deadline_us) {
      // The response exists, but it landed after the caller's budget — the
      // caller has moved on, exactly like a late RPC on a real cluster.
      record_retries(attempt);
      return Status::DeadlineExceeded("deadline exceeded calling " + service);
    }
    if (result.ok()) {
      record_retries(attempt);
      return result;
    }
    StatusCode code = result.status().code();
    bool retryable = !breaker_rejected && (code == StatusCode::kUnavailable ||
                                           code == StatusCode::kCorruption);
    if (!retryable || attempt >= options.max_retries) {
      record_retries(attempt);
      return result;
    }
    uint64_t sleep_us = static_cast<uint64_t>(std::min(
        backoff_us, static_cast<double>(options.max_backoff_us)));
    // Jitter in [0.5, 1.5): deterministic per draw, but desynchronized
    // across callers so a healed service is not hit by a retry convoy.
    uint64_t seq = jitter_seq_.fetch_add(1, std::memory_order_relaxed);
    common::Rng jitter_rng(common::HashCombine(0x6a177e72ULL, seq));
    sleep_us = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(sleep_us) *
                                 (0.5 + jitter_rng.Double())));
    if (options.deadline_us > 0 &&
        elapsed_us() + sleep_us >= options.deadline_us) {
      record_retries(attempt);
      return Status::DeadlineExceeded("deadline exceeded calling " + service);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    backoff_us *= kBackoffMultiplier;
  }
}

MineExecutor* VinciBus::EnsurePool() const {
  common::MutexLock lock(pool_mu_);
  if (!pool_) {
    MineExecutorOptions options;
    options.threads = ScatterThreads();
    options.batch_size = 1;
    pool_ = std::make_unique<MineExecutor>(options);
  }
  return pool_.get();
}

namespace {

// Shared state of one hedged gather. Tasks (primaries and hedges) hold a
// shared_ptr, so an abandoned straggler finishing after the gather returned
// publishes into a still-live, already-resolved slot and is ignored —
// cancel-by-ignore, the only cancellation the simulated bus needs.
struct HedgeGather {
  struct Slot {
    bool resolved = false;      // final result chosen (success/failure/abandon)
    bool primary_done = false;  // primary attempt returned
    bool hedge_issued = false;
    bool hedge_done = false;    // hedge attempt returned (if issued)
    // When the primary actually left the scatter pool's queue (0 = not yet).
    // The hedge clock starts here, not at scatter start, so local queueing
    // delay is never mistaken for backend slowness.
    uint64_t primary_start_us = 0;
    common::Result<std::string> result = Status::Unavailable("pending");
    // Primary's failure, preferred over the hedge's when both fail so the
    // reported status matches what the unhedged scatter would have said.
    common::Status primary_failure = Status::Ok();
  };
  // Per-target schedule: hedge delay relative to primary dispatch, abandon
  // time absolute µs; 0 = never. A suspect target's primary runs on its own
  // detached thread (the sick lane) instead of the shared scatter pool, so
  // a straggler sleeping toward the deadline never queues healthy shards'
  // dispatches behind it.
  struct Plan {
    uint64_t hedge_delay_us = 0;
    uint64_t abandon_at_us = 0;
    bool sick_lane = false;
  };

  // Immutable after setup (written before any task is dispatched).
  std::string request;
  CallOptions options;
  std::vector<std::string> targets;

  common::Mutex mu;
  std::condition_variable_any cv;
  std::vector<Slot> slots WF_GUARDED_BY(mu);
  size_t unresolved WF_GUARDED_BY(mu) = 0;
};

}  // namespace

std::vector<std::pair<std::string, common::Result<std::string>>>
VinciBus::CallAll(const std::string& prefix, const std::string& request,
                  const CallOptions& options, const HedgeOptions& hedge) const
    WF_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<std::string> targets;
  {
    common::MutexLock lock(mu_);
    for (auto it = services_.lower_bound(prefix);
         it != services_.end() && common::StartsWith(it->first, prefix);
         ++it) {
      targets.push_back(it->first);
    }
  }
  // Every attempt goes through Call/CallOnce, so faults, breakers, and call
  // counts behave exactly as for point-to-point calls; a target
  // unregistered since the listing simply reports NotFound.
  const size_t n = targets.size();
  std::vector<std::pair<std::string, common::Result<std::string>>> out;
  out.reserve(n);
  if (!hedge.enabled) {
    // Scatter over the worker pool — the gather latency is a handful of
    // round trips at worst, not the sum over nodes, while the thread count
    // stays bounded however wide the fan-out is.
    for (const std::string& name : targets) {
      out.emplace_back(name, Status::Unavailable("not dispatched"));
    }
    EnsurePool()->ParallelFor(n, [&](size_t i) {
      out[i].second = Call(targets[i], request, options);
    });
    return out;
  }
  auto g = std::make_shared<HedgeGather>();
  g->request = request;
  g->options = options;
  g->targets = std::move(targets);
  g->slots.resize(n);
  g->unresolved = n;

  // An attempt's result enters its slot here; the first success resolves
  // the slot, anything after that is the ignored loser.
  auto publish = [this, g](size_t i, common::Result<std::string> r,
                           bool is_hedge) {
    bool hedge_won = false;
    {
      common::MutexLock lock(g->mu);
      HedgeGather::Slot& s = g->slots[i];
      if (is_hedge) {
        s.hedge_done = true;
      } else {
        s.primary_done = true;
        if (!r.ok()) s.primary_failure = r.status();
      }
      if (!s.resolved) {
        if (r.ok()) {
          s.result = std::move(r);
          s.resolved = true;
          hedge_won = is_hedge;
          --g->unresolved;
        } else if (s.primary_done && (!s.hedge_issued || s.hedge_done)) {
          // Every attempt has failed; report the primary's status so the
          // caller sees what the unhedged scatter would have reported.
          s.result = s.primary_done && !s.primary_failure.ok()
                         ? s.primary_failure
                         : r.status();
          s.resolved = true;
          --g->unresolved;
        }
      }
    }
    g->cv.notify_all();
    if (hedge_won) {
      Count("vinci/hedge_wins_total");
      Count("vinci/hedge_wins/" + g->targets[i]);
    }
  };

  // Per-target schedule, fixed up front: hedge at a seeded-jittered ~p95
  // delay (skipped entirely when it could not fit inside the deadline — the
  // clamp the serving-unclamped-hedge lint rule looks for), abandon at the
  // deadline, or early for a suspect target (no hedge there: the one
  // replica of the shard is the sick one).
  HealthScoreboard* health = health_.load(std::memory_order_acquire);
  const uint64_t start_us = obs::MonotonicNowUs();
  const uint64_t expiry_us =
      options.deadline_us > 0 ? start_us + options.deadline_us : 0;
  std::vector<HedgeGather::Plan> plans(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& target = g->targets[i];
    uint64_t delay_us = hedge.default_delay_us;
    bool suspect = false;
    if (health != nullptr) {
      delay_us = health->LatencyQuantileUs(target, kHedgeDelayQuantile,
                                           hedge.default_delay_us);
      suspect = health->Suspect(target);
    }
    delay_us = std::clamp(delay_us, hedge.min_delay_us, hedge.max_delay_us);
    // Seeded jitter in [0.75, 1.25): reproducible per draw, desynchronized
    // across targets so hedges do not fire as a convoy.
    const uint64_t seq = hedge_seq_.fetch_add(1, std::memory_order_relaxed);
    common::Rng hedge_rng(common::HashCombine(0x48454447ULL, seq));
    delay_us = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(delay_us) *
                                 (0.75 + hedge_rng.Double() / 2.0)));
    HedgeGather::Plan& plan = plans[i];
    // A suspect target is never hedged — its shard has one replica and that
    // replica is the sick one, so a re-issue just queues behind the
    // straggler. Early abandon is allowed only when the suspect's latency
    // EWMA already exceeds the call deadline: the shard was going to miss
    // the deadline either way, so failing it at a fleet-derived margin
    // bounds the gather without changing the answer the unhedged scatter
    // would have produced (the byte-identity contract).
    const bool predicted_miss =
        suspect && expiry_us != 0 && health != nullptr &&
        health->Snapshot(target).ewma_latency_us >=
            static_cast<double>(options.deadline_us);
    plan.sick_lane = suspect;
    if (predicted_miss) {
      const uint64_t fleet_us = health->FleetLatencyQuantileUs(
          kHedgeDelayQuantile, hedge.default_delay_us);
      const uint64_t margin_us = std::clamp(
          static_cast<uint64_t>(hedge.suspect_margin_factor *
                                static_cast<double>(fleet_us)),
          hedge.suspect_min_margin_us, options.deadline_us);
      plan.abandon_at_us = std::min(expiry_us, start_us + margin_us);
    } else if (suspect) {
      plan.abandon_at_us = expiry_us;
    } else {
      plan.abandon_at_us = expiry_us;
      // The delay is applied from primary dispatch by the coordinator, which
      // re-checks the deadline clamp at fire time (see hedge_at_us below).
      plan.hedge_delay_us = std::min(delay_us, hedge.max_delay_us);
    }
  }

  // Primaries run detached (Submit, not ParallelFor, which would make the
  // coordinator claim a task and sleep through its round trip instead of
  // watching the clock), with the full resilient semantics — retries,
  // backoff, and breaker feeding exactly as the unhedged scatter.
  MineExecutor* pool = EnsurePool();
  for (size_t i = 0; i < n; ++i) {
    auto primary = [this, g, i, publish] {
      {
        common::MutexLock lock(g->mu);
        g->slots[i].primary_start_us = obs::MonotonicNowUs();
      }
      // Wake the coordinator so it can schedule this slot's hedge timer.
      g->cv.notify_all();
      publish(i, Call(g->targets[i], g->request, g->options),
              /*is_hedge=*/false);
    };
    if (plans[i].sick_lane) {
      // Sick lane: a suspect's straggler may legitimately sleep toward the
      // deadline, and on the shared pool that would queue healthy shards'
      // dispatches behind it. Suspects are rare by construction, so one
      // detached thread each is cheap. The dispatch gate is entered here —
      // not inside the new thread — so Shutdown()/Attach* quiescing can
      // never slip between the spawn and the thread's first instruction.
      auto gate = std::make_shared<DispatchGuard>(*this);
      std::thread([primary, gate] { primary(); }).detach();
    } else {
      pool->Submit(primary);
    }
  }

  // Coordinator: the calling thread watches the clock, fires due hedges,
  // abandons stragglers, and returns once every slot is resolved. Waits are
  // chunked so a missed notify can only cost one chunk, mirroring the
  // serving layer's bounded-wait discipline.
  constexpr uint64_t kWaitChunkUs = 20000;
  std::unique_lock<common::Mutex> lock(g->mu);
  for (;;) {
    if (g->unresolved == 0) break;
    const uint64_t now_us = obs::MonotonicNowUs();
    uint64_t next_event_us = 0;
    for (size_t i = 0; i < n; ++i) {
      HedgeGather::Slot& s = g->slots[i];
      if (s.resolved) continue;
      const HedgeGather::Plan& plan = plans[i];
      if (plan.abandon_at_us != 0 && now_us >= plan.abandon_at_us) {
        s.resolved = true;
        s.result = Status::DeadlineExceeded("straggler abandoned: " +
                                            g->targets[i]);
        --g->unresolved;
        Count("vinci/hedge_abandoned_total");
        continue;
      }
      // Hedge clock runs from primary dispatch; a hedge that would fire at
      // or past the expiry is never issued (deadline clamp, the
      // serving-unclamped-hedge contract). 0 = not yet schedulable or never.
      const uint64_t hedge_at_us =
          plan.hedge_delay_us == 0 || s.primary_start_us == 0 ||
                  (expiry_us != 0 &&
                   s.primary_start_us + plan.hedge_delay_us >= expiry_us)
              ? 0
              : s.primary_start_us + plan.hedge_delay_us;
      if (hedge_at_us != 0 && !s.hedge_issued && now_us >= hedge_at_us) {
        s.hedge_issued = true;
        Count("vinci/hedges_total");
        Count("vinci/hedges/" + g->targets[i]);
        pool->Submit([this, g, i, publish] {
          bool breaker_rejected = false;
          publish(i,
                  CallOnce(g->targets[i], g->request, &breaker_rejected,
                           /*feed_breaker=*/false),
                  /*is_hedge=*/true);
        });
      } else if (hedge_at_us != 0 && !s.hedge_issued) {
        next_event_us = next_event_us == 0
                            ? hedge_at_us
                            : std::min(next_event_us, hedge_at_us);
      }
      if (plan.abandon_at_us != 0) {
        next_event_us = next_event_us == 0
                            ? plan.abandon_at_us
                            : std::min(next_event_us, plan.abandon_at_us);
      }
    }
    if (g->unresolved == 0) break;
    uint64_t wait_us = kWaitChunkUs;
    if (next_event_us != 0) {
      const uint64_t now2_us = obs::MonotonicNowUs();
      wait_us = next_event_us > now2_us
                    ? std::min(kWaitChunkUs, next_event_us - now2_us)
                    : 1;
    }
    g->cv.wait_for(lock, std::chrono::microseconds(wait_us));
  }

  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(g->targets[i], g->slots[i].result);
  }
  return out;
}

void VinciBus::SetBreakerConfig(const BreakerConfig& config) {
  common::MutexLock lock(breaker_mu_);
  breaker_config_ = config;
}

BreakerState VinciBus::breaker_state(const std::string& service) const {
  common::MutexLock lock(breaker_mu_);
  auto it = breakers_.find(service);
  if (it == breakers_.end() || !it->second.open) return BreakerState::kClosed;
  return it->second.rejections >= breaker_config_.open_rejections
             ? BreakerState::kHalfOpen
             : BreakerState::kOpen;
}

void VinciBus::ResetBreakers() {
  common::MutexLock lock(breaker_mu_);
  for (const auto& [service, breaker] : breakers_) {
    if (breaker.open) SetBreakerGauge(service, 0);
  }
  breakers_.clear();
}

std::vector<std::string> VinciBus::Services() const {
  common::MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(services_.size());
  for (const auto& [name, handler] : services_) out.push_back(name);
  return out;
}

size_t VinciBus::CallCount(const std::string& service) const {
  common::MutexLock lock(mu_);
  auto it = call_counts_.find(service);
  return it == call_counts_.end() ? 0 : it->second;
}

// --- Wire helpers -----------------------------------------------------------

namespace {

// Escapes backslashes and newlines; '=' additionally when `escape_eq`
// (keys must escape it — the key/value split is the first unescaped '=').
std::string EscapeWire(const std::string& v, bool escape_eq) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '=' && escape_eq) {
      out += "\\=";
    } else {
      out += c;
    }
  }
  return out;
}

// Inverse of EscapeWire. Decode is total: an unknown escape keeps its
// backslash, and a dangling trailing backslash is preserved verbatim
// instead of being silently dropped or merged with the next byte.
std::string UnescapeWire(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] != '\\') {
      out += v[i];
      continue;
    }
    if (i + 1 >= v.size()) {
      out += '\\';  // dangling trailing backslash
      break;
    }
    char next = v[i + 1];
    if (next == 'n') {
      out += '\n';
      ++i;
    } else if (next == '\\') {
      out += '\\';
      ++i;
    } else if (next == '=') {
      out += '=';
      ++i;
    } else {
      out += '\\';  // unknown escape: keep the backslash, rescan `next`
    }
  }
  return out;
}

// First '=' not preceded by an (unconsumed) escape, or npos.
size_t FindUnescapedEq(const std::string& line) {
  bool escaped = false;
  for (size_t i = 0; i < line.size(); ++i) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (line[i] == '\\') {
      escaped = true;
      continue;
    }
    if (line[i] == '=') return i;
  }
  return std::string::npos;
}

}  // namespace

std::string EncodeMessage(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out;
  for (const auto& [k, v] : pairs) {
    out += EscapeWire(k, /*escape_eq=*/true);
    out += '=';
    out += EscapeWire(v, /*escape_eq=*/false);
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> DecodeMessage(
    const std::string& message) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& line : common::SplitExact(message, "\n")) {
    if (line.empty()) continue;
    size_t eq = FindUnescapedEq(line);
    if (eq == std::string::npos) continue;
    out.emplace_back(UnescapeWire(line.substr(0, eq)),
                     UnescapeWire(line.substr(eq + 1)));
  }
  return out;
}

std::string GetMessageField(const std::string& message,
                            const std::string& key) {
  for (const auto& [k, v] : DecodeMessage(message)) {
    if (k == key) return v;
  }
  return "";
}

std::vector<std::string> GetMessageFields(const std::string& message,
                                          const std::string& key) {
  std::vector<std::string> out;
  for (const auto& [k, v] : DecodeMessage(message)) {
    if (k == key) out.push_back(v);
  }
  return out;
}

}  // namespace wf::platform
