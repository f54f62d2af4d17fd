#ifndef WF_PLATFORM_VINCI_H_
#define WF_PLATFORM_VINCI_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace wf::obs {
class MetricsRegistry;
class Tracer;
}  // namespace wf::obs

namespace wf::platform {

class FaultInjector;
class HealthScoreboard;
class MineExecutor;

// Per-call resilience knobs for VinciBus::Call and CallAll. The defaults,
// no deadline and no retries, make a plain call: one attempt, and no retry
// metrics recorded.
struct CallOptions {
  // Overall budget across all attempts, in microseconds; 0 means none.
  // Exceeding it returns Status::DeadlineExceeded.
  uint64_t deadline_us = 0;
  // Extra attempts after the first, on retryable failures (Unavailable,
  // Corruption). NotFound and circuit-breaker rejections never retry.
  int max_retries = 0;
  // Exponential backoff between attempts: initial * 2^attempt, capped at
  // max, scaled by jitter in [0.5, 1.5) so synchronized callers do not
  // retry in lockstep.
  uint64_t initial_backoff_us = 100;
  uint64_t max_backoff_us = 10000;
};

// Tail-tolerance knobs for the hedged CallAll (DESIGN.md §14). A hedge is a
// single re-issue of a straggling scatter call after a delay derived from
// the target's observed latency distribution (~p95 via the attached
// HealthScoreboard, `default_delay_us` until it has history). The delay is
// measured from the moment the primary is actually dispatched, not from
// scatter start, so scatter-pool queueing is never mistaken for backend
// slowness. The first success wins; the loser is cancelled by ignoring it.
// Every hedge fire time is clamped to the caller's deadline — a hedge that
// could not finish in budget is never issued — and the per-target delay
// carries seeded
// jitter (hedge verdicts are reproducible per draw, desynchronized across
// targets). Suspect targets (gray-failing per the scoreboard) are never
// hedged — the only replica of a shard service is the sick one, so a
// re-issue would just queue behind the straggler; instead their primaries
// run on a dedicated detached thread (the "sick lane", keeping the shared
// scatter pool clear for healthy shards) and the gather widens its margin
// and abandons them early (see suspect_margin_factor).
struct HedgeOptions {
  bool enabled = false;
  // Hedge delay while a target has no latency history.
  uint64_t default_delay_us = 5000;
  // Clamp bounds for the computed hedge delay.
  uint64_t min_delay_us = 500;
  uint64_t max_delay_us = 100000;
  // A suspect target whose latency EWMA already exceeds the call deadline
  // (a predicted deadline miss — it was going to fail either way) is
  // abandoned (DeadlineExceeded, primary left to finish detached) once it
  // has been in flight `suspect_margin_factor` times the fleet-median
  // quantile latency, clamped to [suspect_min_margin_us, deadline]. This
  // is what keeps one gray node from dragging the whole gather to the
  // deadline on every scatter, without ever dropping a shard the unhedged
  // path would have kept (the byte-identity contract).
  double suspect_margin_factor = 4.0;
  uint64_t suspect_min_margin_us = 2000;
};

// Per-service circuit breaker: after `failure_threshold` consecutive
// failures the circuit opens and calls are rejected immediately (no
// latency, no handler dispatch) — that is what stops a retry storm from
// hammering a sick node. After `open_rejections` fast-rejections the next
// call is let through as a half-open probe: success closes the circuit,
// failure re-opens it for another rejection window. Counting calls rather
// than wall time keeps chaos runs deterministic.
struct BreakerConfig {
  size_t failure_threshold = 5;
  size_t open_rejections = 8;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

// In-process stand-in for Vinci, WebFountain's "Web-service style,
// lightweight, high-speed communication protocol" (a SOAP derivative).
// Services register string->string handlers under a name; nodes and
// applications communicate exclusively through Call(), which keeps the
// shared-nothing discipline honest — no component touches another's memory.
//
// Requests and responses use a line-oriented "key=value" wire format (see
// the helpers below) to mimic the serialization boundary of the real
// protocol.
//
// Failure semantics mirror a real cluster bus: an attached FaultInjector
// can drop, delay, or corrupt calls; Call() with CallOptions retries with
// exponential backoff under a deadline; a per-service circuit breaker
// sheds load from services that keep failing. Service resolution is local
// (a registry lookup), so a NotFound miss costs no simulated round trip.
class VinciBus {
 public:
  using Handler = std::function<std::string(const std::string& request)>;

  VinciBus();
  ~VinciBus();
  VinciBus(const VinciBus&) = delete;
  VinciBus& operator=(const VinciBus&) = delete;

  // Adds a busy-wait of `microseconds` to every Call(), simulating the
  // network round trip of the real SOAP-derived protocol. 0 disables
  // (default). Scatter/gather costs then scale with fan-out, as they would
  // across racks. Atomic: may be flipped while scattered calls are in
  // flight (CallAll workers read it concurrently).
  void SetSimulatedLatency(uint64_t microseconds) {
    simulated_latency_us_.store(microseconds, std::memory_order_relaxed);
  }

  // Attaches a chaos source consulted on every dispatch; nullptr detaches.
  // Quiescing: returns only after every dispatch that may have observed the
  // previous pointer has finished, so the caller may destroy the old
  // injector the moment this returns — hedged scatters leave detached
  // straggler tasks running past CallAll's return (cancel-by-ignore), and
  // without the quiesce a straggler could consult an injector its owner
  // already destroyed. Do not call under sustained dispatch load from
  // other threads; it waits for an idle instant.
  void AttachFaultInjector(FaultInjector* injector);

  // Attaches a metrics registry; every dispatch then records per-service
  // call/failure counters, breaker transitions, retry counts, and latency
  // histograms (see DESIGN.md §8 for the naming scheme). nullptr detaches.
  // Quiescing, like AttachFaultInjector.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Attaches a health scoreboard; every dispatched call then feeds its
  // observed latency and outcome into it (successes, injected faults,
  // corruptions, and in-flight deadline expiries — the gray-failure
  // signature). The hedged CallAll consults it for hedge timing and suspect
  // judgments. nullptr detaches. Quiescing, like AttachFaultInjector.
  void AttachHealth(HealthScoreboard* health);

  // Attaches a tracer; a dispatched call whose request carries trace
  // context (obs::kTraceIdKey / obs::kSpanIdKey fields) then records a
  // client-side child span named after the target service, stitching a
  // scatter into one parent/child trace. Requests without context trace
  // nothing. nullptr detaches. Quiescing, like AttachFaultInjector.
  void AttachTracer(obs::Tracer* tracer);

  // Joins the scatter pool (queued-but-unstarted detached tasks are
  // dropped) and waits for in-flight dispatches to drain. After this no
  // task of this bus can touch a handler, attachment, or metric. Called by
  // the destructor; owners embedding the bus next to the state its
  // handlers capture (Cluster) call it first so stragglers cannot outlive
  // that state.
  void Shutdown();

  // Registers a service; AlreadyExists if the name is taken.
  common::Status RegisterService(const std::string& name, Handler handler);
  common::Status UnregisterService(const std::string& name);

  // Synchronous request/response; NotFound for unknown services (resolved
  // locally, before any simulated network cost), Unavailable for injected
  // failures / partitions / an open circuit, Corruption for responses that
  // fail the simulated end-to-end checksum. With a deadline or retries in
  // `options`, retryable failures are retried with exponential backoff and
  // jitter under the overall deadline (DeadlineExceeded once spent).
  common::Result<std::string> Call(const std::string& service,
                                   const std::string& request,
                                   const CallOptions& options = {}) const;

  // Fan-out: calls every service whose name starts with `prefix`, each
  // under `options` as Call does, returning per-service Results — the
  // scatter half of scatter/gather queries. A failed target reports its
  // error instead of poisoning the whole gather, so callers can tell "node
  // down" from "empty answer", and a straggler costs at most the caller's
  // deadline. Scatter runs on the bus's bounded worker pool (plus the
  // calling thread), never thread-per-target.
  //
  // With `hedge.enabled`, the scatter is tail-tolerant: a straggling target
  // is re-issued once after a deadline-clamped, health-derived hedge delay
  // (first success wins, loser ignored), and the gather stops waiting for a
  // target at the caller's deadline — or earlier for suspect targets —
  // instead of riding out the straggler's full latency. Hedge attempts are
  // single-shot and breaker-neutral: they never feed the circuit breaker,
  // never consume its rejection window, and never count in
  // `vinci/retry_total` / `vinci/retries_per_call`; their audit trail is
  // `vinci/hedges_total`, `vinci/hedge_wins_total`, and
  // `vinci/hedge_abandoned_total`.
  std::vector<std::pair<std::string, common::Result<std::string>>> CallAll(
      const std::string& prefix, const std::string& request,
      const CallOptions& options = {}, const HedgeOptions& hedge = {}) const;

  // Circuit-breaker controls. Config applies to every service on this bus.
  void SetBreakerConfig(const BreakerConfig& config);
  BreakerState breaker_state(const std::string& service) const;
  // Force-closes every breaker (e.g. after an operator heals a partition).
  void ResetBreakers();

  std::vector<std::string> Services() const;
  // Total completed calls (diagnostics).
  size_t CallCount(const std::string& service) const;

 private:
  struct Breaker {
    size_t consecutive_failures = 0;
    bool open = false;
    size_t rejections = 0;  // fast-rejections since the circuit opened
  };

  void SimulateLatency(uint64_t extra_us) const;
  // One dispatch attempt: breaker gate, local resolution, fault injection,
  // simulated latency, handler. `breaker_rejected` is set when the failure
  // came from an open circuit (never retried, costs nothing). With
  // `feed_breaker == false` (hedge attempts) the breaker is read-only: an
  // open circuit still refuses the call, but the attempt neither consumes
  // the rejection window nor feeds the failure streak — a hedged scatter
  // must leave the breaker state machine exactly as the unhedged one.
  common::Result<std::string> CallOnce(const std::string& service,
                                       const std::string& request,
                                       bool* breaker_rejected,
                                       bool feed_breaker = true) const;
  // The scatter pool, built on first use: ScatterThreads() workers, and
  // batch_size 1, because a scatter task sleeps through its round trip and
  // two of them must never share one claim.
  MineExecutor* EnsurePool() const WF_EXCLUDES(pool_mu_);
  // RAII over active_dispatches_: every CallOnce body runs inside one, and
  // the guard is entered before any attachment pointer is loaded, so
  // QuiesceDispatches() really does fence off the old pointer.
  class DispatchGuard {
   public:
    explicit DispatchGuard(const VinciBus& bus);
    ~DispatchGuard();
    DispatchGuard(const DispatchGuard&) = delete;
    DispatchGuard& operator=(const DispatchGuard&) = delete;

   private:
    const VinciBus& bus_;
  };
  // Blocks until no dispatch is in flight (see AttachFaultInjector).
  void QuiesceDispatches() const;
  // Records an attempt outcome; NotFound is a resolution miss, not a
  // service failure, and is never recorded.
  void RecordOutcome(const std::string& service, bool ok) const;
  // Bumps a counter on the attached registry, if any.
  void Count(const std::string& name, uint64_t delta = 1) const;
  // Sets the per-service breaker-state gauge (0 closed, 1 open, 2 half-open)
  // on the attached registry, if any.
  void SetBreakerGauge(const std::string& service, int64_t state) const;

  mutable common::Mutex mu_;
  std::map<std::string, Handler> services_ WF_GUARDED_BY(mu_);
  mutable std::map<std::string, size_t> call_counts_ WF_GUARDED_BY(mu_);
  std::atomic<uint64_t> simulated_latency_us_{0};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  std::atomic<obs::MetricsRegistry*> metrics_{nullptr};
  std::atomic<obs::Tracer*> tracer_{nullptr};
  std::atomic<HealthScoreboard*> health_{nullptr};

  mutable common::Mutex breaker_mu_;
  BreakerConfig breaker_config_ WF_GUARDED_BY(breaker_mu_);
  mutable std::map<std::string, Breaker> breakers_ WF_GUARDED_BY(breaker_mu_);

  mutable common::Mutex pool_mu_;  // guards lazy pool construction
  mutable std::unique_ptr<MineExecutor> pool_ WF_GUARDED_BY(pool_mu_);

  // Backoff-jitter sequence; each draw seeds a fresh wf::common::Rng so
  // concurrent retries stay lock-free and reproducible.
  mutable std::atomic<uint64_t> jitter_seq_{0};
  // Hedge-delay jitter sequence, same scheme: every hedge verdict is a
  // seeded draw, never an unseeded RNG.
  mutable std::atomic<uint64_t> hedge_seq_{0};

  // Count of dispatches currently inside CallOnce; the quiescing
  // attachment setters wait for it to reach zero after swapping a pointer.
  mutable common::Mutex dispatch_mu_;
  mutable std::condition_variable_any dispatch_cv_;
  mutable uint64_t active_dispatches_ WF_GUARDED_BY(dispatch_mu_) = 0;
};

// --- Wire helpers: the "key=value" line format used over the bus ----------

// Encodes pairs as "k=v" lines. Backslashes and newlines are escaped in
// both keys and values; '=' is additionally escaped in keys, so any byte
// string round-trips through Decode (keys with '=' used to corrupt the
// message silently).
std::string EncodeMessage(
    const std::vector<std::pair<std::string, std::string>>& pairs);
// Decodes; lines without an (unescaped) '=' are skipped.
std::vector<std::pair<std::string, std::string>> DecodeMessage(
    const std::string& message);
// First value for `key`, or empty string.
std::string GetMessageField(const std::string& message,
                            const std::string& key);
// Every value for `key`, in order.
std::vector<std::string> GetMessageFields(const std::string& message,
                                          const std::string& key);

}  // namespace wf::platform

#endif  // WF_PLATFORM_VINCI_H_
