#ifndef WFBENCH_SPANS_H_
#define WFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wfbench {

// Nanoseconds on the steady clock; every span and latency in the benchmark
// uses this one time base.
int64_t NowNs();

// One recorded interval. `request` groups the spans of one unit of work (a
// query, an entity); `parent` is 0 for a root.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  // static storage: span names are literals
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

// In-memory span sink for the traced run. Spans are recorded around the
// benchmark's calls into each layer and written out when the run ends.
// A disabled log records nothing and never reads the clock, so untraced
// runs pay one branch per span site. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const SpanRecord& span);

  // Copies of every span named `name` (any parent), in recording order.
  std::vector<SpanRecord> Named(const char* name) const;
  // Copies of every span whose parent is `parent`.
  std::vector<SpanRecord> ChildrenOf(uint64_t parent) const;
  size_t size() const;

  // One tab-separated line per span: id parent request name start_ns
  // end_ns, times relative to the earliest span.
  bool WriteTsv(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

// RAII span: starts on construction, records on destruction (or End()).
// A no-op when `log` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return record_.id; }
  void End();

 private:
  SpanLog* log_;
  SpanRecord record_;
};

// Total length covered by the union of `intervals` ([start, end) pairs in
// ns), each clipped to [lo, hi).
int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                int64_t lo, int64_t hi);

// A span's self time: its duration minus the part of its interval that
// the union of `children` covers. Children may overlap one another (they
// run in parallel) and may stick out of the parent; only the covered part
// of the parent counts.
int64_t SelfTimeNs(const SpanRecord& span,
                   const std::vector<SpanRecord>& children);

}  // namespace wfbench

#endif  // WFBENCH_SPANS_H_
