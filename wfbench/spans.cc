#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace wfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Record(const SpanRecord& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanLog::Named(const char* name) const {
  std::vector<SpanRecord> out;
  const std::string want(name);
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (want == s.name) out.push_back(s);
  }
  return out;
}

std::vector<SpanRecord> SpanLog::ChildrenOf(uint64_t parent) const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (s.parent == parent) out.push_back(s);
  }
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
                       uint64_t request)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  record_.id = log_->NextId();
  record_.parent = parent;
  record_.request = request;
  record_.name = name;
  record_.start_ns = NowNs();
}

void ScopedSpan::End() {
  if (log_ == nullptr) return;
  record_.end_ns = NowNs();
  log_->Record(record_);
  log_ = nullptr;
}

int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                int64_t lo, int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = std::numeric_limits<int64_t>::min();
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (start > run_end) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = start;
      run_end = end;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return covered;
}

int64_t SelfTimeNs(const SpanRecord& span,
                   const std::vector<SpanRecord>& children) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (const SpanRecord& c : children) {
    intervals.emplace_back(c.start_ns, c.end_ns);
  }
  return span.duration_ns() -
         UnionNs(std::move(intervals), span.start_ns, span.end_ns);
}

}  // namespace wfbench
