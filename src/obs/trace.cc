#include "obs/trace.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/metrics.h"

namespace wf::obs {

namespace {

// Domain-separation constants mixed into the id derivations.
constexpr uint64_t kTraceDomain = 0x77662d7472616365ULL;  // "wf-trace"
constexpr uint64_t kRootDomain = 0x77662d726f6f7400ULL;   // "wf-root"

uint64_t NonZero(uint64_t id) { return id == 0 ? 1 : id; }

}  // namespace

std::string IdToHex(uint64_t id) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[id & 0xf];
    id >>= 4;
  }
  return out;
}

uint64_t IdFromHex(const std::string& hex) {
  if (hex.size() != 16) return 0;
  uint64_t id = 0;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return 0;
    }
    id = (id << 4) | digit;
  }
  return id;
}

// --- Span -------------------------------------------------------------------

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    Finish();
    tracer_ = other.tracer_;
    context_ = other.context_;
    parent_span_id_ = other.parent_span_id_;
    name_ = std::move(other.name_);
    attrs_ = std::move(other.attrs_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::SetAttr(const std::string& key, const std::string& value) {
  if (tracer_ == nullptr) return;
  attrs_[key] = value;
}

void Span::Finish() {
  if (tracer_ == nullptr) return;
  tracer_->Record(this);
  tracer_ = nullptr;
}

void AppendContext(const SpanContext& context,
                   std::vector<std::pair<std::string, std::string>>* pairs) {
  if (!context.valid()) return;
  pairs->emplace_back(kTraceIdKey, IdToHex(context.trace_id));
  pairs->emplace_back(kSpanIdKey, IdToHex(context.span_id));
}

// --- Tracer -----------------------------------------------------------------

Span Tracer::StartTrace(const std::string& name) {
  uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Span span;
  span.tracer_ = this;
  span.context_.trace_id =
      NonZero(common::HashCombine(seed_, common::HashCombine(kTraceDomain, seq)));
  span.context_.span_id =
      NonZero(common::HashCombine(span.context_.trace_id, kRootDomain));
  span.parent_span_id_ = 0;
  span.name_ = name;
  return span;
}

Span Tracer::StartSpan(const SpanContext& parent, const std::string& name) {
  if (!parent.valid()) return Span();
  uint64_t seq;
  {
    common::MutexLock lock(mu_);
    seq = ++sibling_seq_[{parent.span_id, name}];
  }
  Span span;
  span.tracer_ = this;
  span.context_.trace_id = parent.trace_id;
  span.context_.span_id = NonZero(common::HashCombine(
      parent.span_id, common::HashCombine(common::Fnv1a64(name), seq)));
  span.parent_span_id_ = parent.span_id;
  span.name_ = name;
  return span;
}

void Tracer::Record(Span* span) {
  FinishedSpan finished;
  finished.trace_id = span->context_.trace_id;
  finished.span_id = span->context_.span_id;
  finished.parent_span_id = span->parent_span_id_;
  finished.name = std::move(span->name_);
  finished.attrs = std::move(span->attrs_);
  common::MutexLock lock(mu_);
  finished_.push_back(std::move(finished));
}

size_t Tracer::finished_count() const {
  common::MutexLock lock(mu_);
  return finished_.size();
}

void Tracer::Clear() {
  common::MutexLock lock(mu_);
  finished_.clear();
  sibling_seq_.clear();
}

std::vector<Tracer::FinishedSpan> Tracer::SortedFinished() const {
  std::vector<FinishedSpan> spans;
  {
    common::MutexLock lock(mu_);
    spans = finished_;
  }
  // Ids are derivation-deterministic, so this order is stable across runs
  // even though finish order (thread interleaving) is not.
  std::sort(spans.begin(), spans.end(),
            [](const FinishedSpan& a, const FinishedSpan& b) {
              return std::tie(a.trace_id, a.span_id, a.name) <
                     std::tie(b.trace_id, b.span_id, b.name);
            });
  return spans;
}

std::string Tracer::ExportText() const {
  std::string out;
  for (const FinishedSpan& span : SortedFinished()) {
    out += "trace=" + IdToHex(span.trace_id);
    out += " span=" + IdToHex(span.span_id);
    out += " parent=";
    out += span.parent_span_id == 0 ? "-" : IdToHex(span.parent_span_id);
    out += " name=" + span.name;
    for (const auto& [key, value] : span.attrs) {
      out += " " + key + "=" + value;
    }
    out += "\n";
  }
  return out;
}

std::string Tracer::ExportJson() const {
  std::string out = "[";
  bool first = true;
  for (const FinishedSpan& span : SortedFinished()) {
    if (!first) out += ',';
    first = false;
    out += "{\"trace\":\"" + IdToHex(span.trace_id) + "\"";
    out += ",\"span\":\"" + IdToHex(span.span_id) + "\"";
    out += ",\"parent\":";
    if (span.parent_span_id == 0) {
      out += "null";
    } else {
      out += '"';
      out += IdToHex(span.parent_span_id);
      out += '"';
    }
    out += ",\"name\":\"" + JsonEscape(span.name) + "\"";
    out += ",\"attrs\":{";
    bool first_attr = true;
    for (const auto& [key, value] : span.attrs) {
      if (!first_attr) out += ',';
      first_attr = false;
      out += '"';
      out += JsonEscape(key);
      out += "\":\"";
      out += JsonEscape(value);
      out += '"';
    }
    out += "}}";
  }
  out += "]";
  return out;
}

}  // namespace wf::obs
