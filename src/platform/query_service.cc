#include "platform/query_service.h"

#include <set>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "platform/sentiment_miner_plugin.h"

namespace wf::platform {

using ::wf::common::Status;
using ::wf::lexicon::Polarity;

namespace {

// Coverage/outcome metrics shared by both query services, recorded under
// query/<service>/... on the cluster registry (DESIGN.md §8).
void RecordQueryMetrics(const obs::MetricsRegistry& metrics,
                        const std::string& service,
                        const SentimentQueryResult& result) {
  const std::string prefix = "query/" + service + "/";
  metrics.GetCounter(prefix + "requests_total")->Add(1);
  metrics.GetCounter(prefix + (result.complete() ? "complete_total"
                                                 : "partial_total"))
      ->Add(1);
  if (result.fetch_failures > 0) {
    metrics.GetCounter(prefix + "fetch_failures_total")
        ->Add(result.fetch_failures);
  }
  metrics.GetCounter(prefix + "hits_total")->Add(result.hits.size());
  metrics.GetCounter(prefix + "nodes_scattered_total")
      ->Add(result.nodes_total);
  metrics.GetCounter(prefix + "nodes_responded_total")
      ->Add(result.nodes_responded);
}

}  // namespace

common::Status SentimentQueryService::RegisterService() {
  return cluster_->bus().RegisterService(
      "app/sentiment_query", [this](const std::string& request) {
        std::string subject = GetMessageField(request, "subject");
        SentimentQueryResult result = Query(subject);
        std::vector<std::pair<std::string, std::string>> out;
        out.emplace_back("subject", result.subject);
        out.emplace_back("positive_docs",
                         common::StrFormat("%zu", result.positive_docs));
        out.emplace_back("negative_docs",
                         common::StrFormat("%zu", result.negative_docs));
        out.emplace_back("nodes_total",
                         common::StrFormat("%zu", result.nodes_total));
        out.emplace_back("nodes_responded",
                         common::StrFormat("%zu", result.nodes_responded));
        for (const SentimentHit& hit : result.hits) {
          out.emplace_back(
              "hit", common::StrFormat(
                         "%s\t%s\t%s", hit.doc_id.c_str(),
                         hit.polarity == Polarity::kPositive ? "+" : "-",
                         hit.sentence.c_str()));
        }
        return EncodeMessage(out);
      });
}

namespace {

// Point fetches ride the resilient path: a couple of quick retries smooth
// over transient faults; a shard that stays down costs one failed fetch,
// not a stalled query.
CallOptions FetchCallOptions() {
  CallOptions options;
  options.max_retries = 2;
  options.initial_backoff_us = 50;
  options.max_backoff_us = 1000;
  return options;
}

}  // namespace

std::vector<SentimentHit> SentimentQueryService::FetchHits(
    const std::string& subject, lexicon::Polarity polarity,
    const std::vector<std::string>& docs, size_t max_hits,
    const Deadline& deadline, size_t* fetch_failures,
    bool* deadline_expired) const {
  std::vector<SentimentHit> hits;
  const char* want = polarity == Polarity::kPositive ? "+" : "-";
  for (const std::string& doc : docs) {
    if (hits.size() >= max_hits) break;
    if (!deadline.infinite() && deadline.expired()) {
      // Budget spent mid-fetch: stop here with what we have. The skipped
      // docs are not failures — the caller is late, not the shards.
      *deadline_expired = true;
      break;
    }
    size_t shard = cluster_->Route(doc);
    CallOptions options = FetchCallOptions();
    // Each fetch (and its retry loop) is capped by whatever budget is
    // left *now*, so the sum of fetches can never overrun the deadline.
    if (!deadline.infinite()) options.deadline_us = deadline.CallBudgetUs();
    std::vector<std::pair<std::string, std::string>> fetch_fields = {
        {"id", doc}};
    AppendDeadline(deadline, &fetch_fields);
    auto response = cluster_->bus().Call(
        common::StrFormat("node/%zu/fetch", shard),
        EncodeMessage(fetch_fields), options);
    if (!response.ok()) {
      ++*fetch_failures;
      continue;
    }
    std::string serialized = GetMessageField(*response, "entity");
    if (serialized.empty()) continue;
    auto entity = Entity::Deserialize(serialized);
    if (!entity.ok()) continue;
    const auto* spans = entity->GetAnnotations("sentiment");
    if (spans == nullptr) continue;
    for (const AnnotationSpan& span : *spans) {
      if (hits.size() >= max_hits) break;
      auto subj_it = span.attrs.find("subject");
      auto pol_it = span.attrs.find("polarity");
      if (subj_it == span.attrs.end() || pol_it == span.attrs.end()) continue;
      if (!common::EqualsIgnoreCase(subj_it->second, subject)) continue;
      if (pol_it->second != want) continue;
      SentimentHit hit;
      hit.doc_id = doc;
      hit.subject = subj_it->second;
      hit.polarity = polarity;
      auto sent_it = span.attrs.find("sentence");
      if (sent_it != span.attrs.end()) hit.sentence = sent_it->second;
      auto pat_it = span.attrs.find("pattern");
      if (pat_it != span.attrs.end()) hit.pattern = pat_it->second;
      hits.push_back(std::move(hit));
    }
  }
  return hits;
}

SentimentQueryResult SentimentQueryService::Query(
    const std::string& subject, size_t max_hits,
    const Deadline& deadline) const {
  obs::ScopedTimer timer(cluster_->metrics().GetHistogram(
      "query/offline/latency_us", obs::DefaultLatencyBoundsUs(),
      /*timing=*/true));
  SentimentQueryResult result;
  result.subject = subject;

  SearchResult pos_docs = cluster_->Search(
      SentimentConceptToken(subject, Polarity::kPositive), deadline);
  SearchResult neg_docs = cluster_->Search(
      SentimentConceptToken(subject, Polarity::kNegative), deadline);
  result.positive_docs = pos_docs.docs.size();
  result.negative_docs = neg_docs.docs.size();

  // Coverage: a node "responded" only if it answered both scatters; the
  // union of failed services across them is what the query really missed.
  result.nodes_total = pos_docs.nodes_total;
  std::set<std::string> failed(pos_docs.failed_services.begin(),
                               pos_docs.failed_services.end());
  failed.insert(neg_docs.failed_services.begin(),
                neg_docs.failed_services.end());
  result.nodes_responded = result.nodes_total - failed.size();

  std::vector<SentimentHit> pos = FetchHits(
      subject, Polarity::kPositive, pos_docs.docs, max_hits - max_hits / 2,
      deadline, &result.fetch_failures, &result.deadline_expired);
  std::vector<SentimentHit> neg = FetchHits(
      subject, Polarity::kNegative, neg_docs.docs, max_hits / 2, deadline,
      &result.fetch_failures, &result.deadline_expired);
  result.hits = std::move(pos);
  result.hits.insert(result.hits.end(), neg.begin(), neg.end());
  RecordQueryMetrics(cluster_->metrics(), "offline", result);
  return result;
}

SentimentQueryResult RuntimeSentimentQueryService::Query(
    const std::string& subject, size_t max_hits) const {
  obs::ScopedTimer timer(cluster_->metrics().GetHistogram(
      "query/runtime/latency_us", obs::DefaultLatencyBoundsUs(),
      /*timing=*/true));
  SentimentQueryResult result;
  result.subject = subject;

  // 1. Find candidate documents through the text index (phrase search for
  //    multi-word subjects).
  std::vector<std::string> words = common::Split(
      common::ToLower(subject), " ");
  SearchResult candidates = words.size() == 1
                                ? cluster_->Search(words[0])
                                : cluster_->SearchPhrase(words);
  result.nodes_total = candidates.nodes_total;
  result.nodes_responded = candidates.nodes_responded;

  // 2. Run the full sentiment pipeline on each candidate, at query time.
  core::SentimentMiner::Config config;
  config.record_neutral = false;
  config.use_disambiguator = false;
  core::SentimentMiner miner(lexicon_, patterns_, config);
  miner.AddSubject(spot::SynonymSet{0, subject, {}});

  core::SentimentStore store;
  for (const std::string& doc : candidates.docs) {
    size_t shard = cluster_->Route(doc);
    auto response = cluster_->bus().Call(
        common::StrFormat("node/%zu/fetch", shard),
        EncodeMessage({{"id", doc}}), FetchCallOptions());
    if (!response.ok()) {
      ++result.fetch_failures;
      continue;
    }
    auto entity = Entity::Deserialize(GetMessageField(*response, "entity"));
    if (!entity.ok()) continue;
    miner.ProcessDocument(doc, *core::AnalyzeDocument(entity->body()),
                          &store);
  }

  // 3. Assemble the same roll-up the offline service returns.
  core::SentimentStore::PageAggregate pages =
      store.PagesForSubject(subject);
  result.positive_docs = pages.pages_positive;
  result.negative_docs = pages.pages_negative;
  for (const core::SentimentMention& m : store.mentions()) {
    if (result.hits.size() >= max_hits) break;
    SentimentHit hit;
    hit.doc_id = m.doc_id;
    hit.subject = m.subject;
    hit.polarity = m.polarity;
    hit.sentence = m.sentence_text;
    hit.pattern = m.pattern;
    result.hits.push_back(std::move(hit));
  }
  RecordQueryMetrics(cluster_->metrics(), "runtime", result);
  return result;
}

std::vector<std::string> SentimentQueryService::KnownSubjects() const {
  std::set<std::string> subjects;
  for (size_t i = 0; i < cluster_->node_count(); ++i) {
    if (!cluster_->IsNodeUp(i)) continue;
    for (const std::string& term :
         cluster_->node(i).index().VocabularyWithPrefix("sent/")) {
      // "sent/<pol>/<subject>"
      std::vector<std::string> parts = common::SplitExact(term, "/");
      if (parts.size() != 3) continue;
      std::string name = parts[2];
      for (char& c : name) {
        if (c == '_') c = ' ';
      }
      subjects.insert(name);
    }
  }
  return std::vector<std::string>(subjects.begin(), subjects.end());
}

}  // namespace wf::platform
