#include "obs/metrics.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace wf::obs {

using ::wf::common::Status;

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<uint64_t> bounds, bool timing)
    : bounds_(std::move(bounds)), timing_(timing), counts_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    WF_CHECK(bounds_[i - 1] < bounds_[i]) << "histogram bounds not ascending";
  }
  // vector's count constructor default-constructs the atomics, and
  // pre-P0883 standard libraries leave a default-constructed atomic
  // uninitialized — zero them before the first Record.
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t value) {
  // First bound >= value; past-the-end means the overflow bucket.
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::vector<uint64_t> ExponentialBounds(uint64_t start, double factor,
                                        size_t count) {
  WF_CHECK(start > 0 && factor > 1.0);
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  double b = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    uint64_t bound = static_cast<uint64_t>(b);
    if (!bounds.empty() && bound <= bounds.back()) bound = bounds.back() + 1;
    bounds.push_back(bound);
    b *= factor;
  }
  return bounds;
}

std::vector<uint64_t> LinearBounds(uint64_t start, uint64_t step,
                                   size_t count) {
  WF_CHECK(step > 0);
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) bounds.push_back(start + i * step);
  return bounds;
}

const std::vector<uint64_t>& DefaultLatencyBoundsUs() {
  static const std::vector<uint64_t>* kBounds =
      new std::vector<uint64_t>(ExponentialBounds(1, 2.0, 24));
  return *kBounds;
}

const std::vector<uint64_t>& DefaultRetryBounds() {
  static const std::vector<uint64_t>* kBounds =
      new std::vector<uint64_t>(LinearBounds(0, 1, 16));
  return *kBounds;
}

// --- MetricsSnapshot --------------------------------------------------------

uint64_t HistogramSnapshot::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based, ceil): the smallest bucket whose
  // cumulative count reaches it bounds the quantile from above.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank < q * static_cast<double>(count) || rank == 0) ++rank;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      if (i < bounds.size()) return bounds[i];
      // Overflow bucket: all the histogram knows is "past the last bound".
      return bounds.empty() ? 0 : bounds.back() + 1;
    }
  }
  return bounds.empty() ? 0 : bounds.back() + 1;
}

common::Status MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  // Validate first so a bounds mismatch leaves this snapshot untouched.
  for (const auto& [name, hist] : other.histograms) {
    auto it = histograms.find(name);
    if (it != histograms.end() && it->second.bounds != hist.bounds) {
      return Status::FailedPrecondition(
          "histogram bounds mismatch merging: " + name);
    }
  }
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, hist] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, hist);
    if (inserted) continue;
    HistogramSnapshot& mine = it->second;
    for (size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += hist.counts[i];
    }
    mine.count += hist.count;
    mine.sum += hist.sum;
    mine.timing = mine.timing || hist.timing;
  }
  return Status::Ok();
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

std::string MetricsSnapshot::ExportText(const ExportOptions& options) const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += "counter " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "gauge " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, hist] : histograms) {
    if (hist.timing && !options.include_timings) continue;
    out += "histogram " + name + " count=" + std::to_string(hist.count) +
           " sum=" + std::to_string(hist.sum) + " buckets=";
    for (size_t i = 0; i < hist.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += i < hist.bounds.size() ? std::to_string(hist.bounds[i]) : "inf";
      out += ':';
      out += std::to_string(hist.counts[i]);
    }
    out += "\n";
  }
  return out;
}

namespace {

// Appends `"<name>":`. Built with appends: GCC 12 misreads a "literal" +
// std::string temporary as an overlapping copy (-Wrestrict, Release only).
void AppendJsonKey(const std::string& name, std::string* out) {
  *out += '"';
  *out += JsonEscape(name);
  *out += "\":";
}

}  // namespace

std::string MetricsSnapshot::ExportJson(const ExportOptions& options) const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonKey(name, &out);
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonKey(name, &out);
    out += std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (hist.timing && !options.include_timings) continue;
    if (!first) out += ',';
    first = false;
    AppendJsonKey(name, &out);
    out += "{\"timing\":";
    out += hist.timing ? "true" : "false";
    out += ",\"count\":" + std::to_string(hist.count);
    out += ",\"sum\":" + std::to_string(hist.sum);
    out += ",\"bounds\":[";
    for (size_t i = 0; i < hist.bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(hist.bounds[i]);
    }
    out += "],\"counts\":[";
    for (size_t i = 0; i < hist.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(hist.counts[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

namespace {

std::string JoinU64(const std::vector<uint64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

bool ParseI64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseU64List(const std::string& s, std::vector<uint64_t>* out) {
  if (s == "-") return true;  // the explicit empty-list marker
  for (const std::string& piece : common::SplitExact(s, ",")) {
    uint64_t v = 0;
    if (!common::ParseUint64(piece, &v)) return false;
    out->push_back(v);
  }
  return true;
}

}  // namespace

std::string MetricsSnapshot::ToWire() const {
  // `c <name> <value>` / `g <name> <value>` /
  // `h <name> <timing:0|1> <bounds|-> <counts> <sum>`, one per line.
  std::string out;
  for (const auto& [name, value] : counters) {
    out += "c " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "g " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, hist] : histograms) {
    out += "h " + name + (hist.timing ? " 1 " : " 0 ");
    out += hist.bounds.empty() ? "-" : JoinU64(hist.bounds);
    out += ' ';
    out += JoinU64(hist.counts);
    out += ' ';
    out += std::to_string(hist.sum);
    out += '\n';
  }
  return out;
}

common::Result<MetricsSnapshot> MetricsSnapshot::FromWire(
    const std::string& wire) {
  MetricsSnapshot snap;
  for (const std::string& line : common::SplitExact(wire, "\n")) {
    if (line.empty()) continue;
    std::vector<std::string> parts = common::SplitExact(line, " ");
    auto corrupt = [&line] {
      return Status::Corruption("bad wfstats wire line: " + line);
    };
    if (parts.size() < 3 || !MetricsRegistry::IsValidMetricName(parts[1])) {
      return corrupt();
    }
    if (parts[0] == "c" && parts.size() == 3) {
      uint64_t value = 0;
      if (!common::ParseUint64(parts[2], &value)) return corrupt();
      snap.counters[parts[1]] += value;
    } else if (parts[0] == "g" && parts.size() == 3) {
      int64_t value = 0;
      if (!ParseI64(parts[2], &value)) return corrupt();
      snap.gauges[parts[1]] += value;
    } else if (parts[0] == "h" && parts.size() == 6) {
      HistogramSnapshot hist;
      if (parts[2] != "0" && parts[2] != "1") return corrupt();
      hist.timing = parts[2] == "1";
      if (!ParseU64List(parts[3], &hist.bounds) ||
          !ParseU64List(parts[4], &hist.counts) ||
          !common::ParseUint64(parts[5], &hist.sum)) {
        return corrupt();
      }
      if (hist.counts.size() != hist.bounds.size() + 1) return corrupt();
      for (uint64_t c : hist.counts) hist.count += c;
      snap.histograms[parts[1]] = std::move(hist);
    } else {
      return corrupt();
    }
  }
  return snap;
}

// --- MetricsRegistry --------------------------------------------------------

bool MetricsRegistry::IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!(common::IsAsciiAlnum(c) || c == '_' || c == '/' || c == '.' ||
          c == ':' || c == '-')) {
      return false;
    }
  }
  return true;
}

MetricsRegistry::Stripe& MetricsRegistry::StripeFor(
    const std::string& name) const {
  return stripes_[common::Fnv1a64(name) % kStripes];
}

Counter* MetricsRegistry::GetCounter(const std::string& name) const {
  WF_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  Stripe& stripe = StripeFor(name);
  common::MutexLock lock(stripe.mu);
  auto& slot = stripe.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) const {
  WF_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  Stripe& stripe = StripeFor(name);
  common::MutexLock lock(stripe.mu);
  auto& slot = stripe.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<uint64_t>& bounds,
                                         bool timing) const {
  WF_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  Stripe& stripe = StripeFor(name);
  common::MutexLock lock(stripe.mu);
  auto& slot = stripe.histograms[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(bounds, timing);
  } else {
    WF_CHECK(slot->bounds() == bounds && slot->timing() == timing)
        << "histogram re-registered with different shape: " << name;
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const Stripe& stripe : stripes_) {
    common::MutexLock lock(stripe.mu);
    for (const auto& [name, counter] : stripe.counters) {
      snap.counters[name] = counter->value();
    }
    for (const auto& [name, gauge] : stripe.gauges) {
      snap.gauges[name] = gauge->value();
    }
    for (const auto& [name, hist] : stripe.histograms) {
      HistogramSnapshot h;
      h.bounds = hist->bounds_;
      h.timing = hist->timing_;
      h.counts.reserve(hist->counts_.size());
      for (const auto& c : hist->counts_) {
        uint64_t v = c.load(std::memory_order_relaxed);
        h.counts.push_back(v);
        h.count += v;
      }
      h.sum = hist->sum_.load(std::memory_order_relaxed);
      snap.histograms.emplace(name, std::move(h));
    }
  }
  return snap;
}

MetricsRegistry& ProcessRegistry() {
  static MetricsRegistry* kRegistry = new MetricsRegistry();
  return *kRegistry;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace wf::obs
