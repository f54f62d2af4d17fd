#include "platform/query_service.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>

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
// `fetch_calls` is the node calls the query's fetch phase made.
void RecordQueryMetrics(const obs::MetricsRegistry& metrics,
                        const std::string& service,
                        const SentimentQueryResult& result,
                        size_t fetch_calls) {
  const std::string prefix = "query/" + service + "/";
  metrics.GetCounter(prefix + "requests_total")->Add(1);
  metrics.GetCounter(prefix + (result.complete() ? "complete_total"
                                                 : "partial_total"))
      ->Add(1);
  if (result.fetch_failures > 0) {
    metrics.GetCounter(prefix + "fetch_failures_total")
        ->Add(result.fetch_failures);
  }
  metrics.GetCounter(prefix + "fetch_calls_total")->Add(fetch_calls);
  metrics.GetCounter(prefix + "hits_total")->Add(result.hits.size());
  metrics.GetCounter(prefix + "nodes_scattered_total")
      ->Add(result.nodes_total);
  metrics.GetCounter(prefix + "nodes_responded_total")
      ->Add(result.nodes_responded);
}

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

// One polarity's walk over the docs its search found, in id order.
struct HitWalk {
  HitWalk(Polarity polarity, const std::vector<std::string>& docs,
          size_t limit)
      : polarity(polarity), docs(docs), limit(limit) {}

  Polarity polarity;
  const std::vector<std::string>& docs;
  size_t limit;
  size_t next = 0;  // the first doc not walked yet
  std::vector<SentimentHit> hits;

  bool full() const { return hits.size() >= limit; }
  bool done() const { return full() || next >= docs.size(); }
};

// What the fetch rounds learned about one doc.
struct FetchedDoc {
  bool failed = false;   // its node's call failed after retries
  bool counted = false;  // already in fetch_failures
  // The doc's spans about the subject, both polarities, in span order;
  // none for a doc the node does not hold or an undecodable entity.
  std::vector<SentimentHit> hits;
};

// `entity`'s sentiment spans whose subject is `subject` (case
// insensitive), as hits.
std::vector<SentimentHit> MatchingHits(const Entity& entity,
                                       const std::string& subject) {
  std::vector<SentimentHit> hits;
  const auto* spans = entity.GetAnnotations("sentiment");
  if (spans == nullptr) return hits;
  for (const AnnotationSpan& span : *spans) {
    auto subj_it = span.attrs.find("subject");
    auto pol_it = span.attrs.find("polarity");
    if (subj_it == span.attrs.end() || pol_it == span.attrs.end()) continue;
    if (!common::EqualsIgnoreCase(subj_it->second, subject)) continue;
    if (pol_it->second != "+" && pol_it->second != "-") continue;
    SentimentHit hit;
    hit.doc_id = entity.id();
    hit.subject = subj_it->second;
    hit.polarity =
        pol_it->second == "+" ? Polarity::kPositive : Polarity::kNegative;
    auto sent_it = span.attrs.find("sentence");
    if (sent_it != span.attrs.end()) hit.sentence = sent_it->second;
    auto pat_it = span.attrs.find("pattern");
    if (pat_it != span.attrs.end()) hit.pattern = pat_it->second;
    hits.push_back(std::move(hit));
  }
  return hits;
}

// Fetches `ids` from `node` in one node/<node>/fetch call and records each
// id's outcome in `fetched`.
void FetchFromNode(const Cluster& cluster, size_t node,
                   const std::set<std::string>& ids,
                   const std::string& subject, const Deadline& deadline,
                   std::map<std::string, FetchedDoc>* fetched) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const std::string& id : ids) fields.emplace_back("id", id);
  AppendDeadline(deadline, &fields);
  CallOptions options = FetchCallOptions();
  // Each call (and its retry loop) is capped by whatever budget is left
  // *now*, so the sum of the calls can never overrun the deadline.
  if (!deadline.infinite()) options.deadline_us = deadline.CallBudgetUs();
  auto response = cluster.bus().Call(
      common::StrFormat("node/%zu/fetch", node), EncodeMessage(fields),
      options);
  for (const std::string& id : ids) (*fetched)[id].failed = !response.ok();
  if (!response.ok()) return;
  for (const std::string& record : GetMessageFields(*response, "entity")) {
    auto entity = Entity::DecodeRecord(record);
    if (!entity.ok()) continue;
    (*fetched)[entity->id()].hits = MatchingHits(*entity, subject);
  }
}

// Walks `walk` forward over the docs fetched so far, under the one-doc
// rule: a failed doc counts once in `fetch_failures` and is skipped, a
// doc's matching spans of the walk's polarity are taken in order until
// the walk is full. Stops at the first doc not fetched yet.
void Advance(std::map<std::string, FetchedDoc>* fetched, HitWalk* walk,
             size_t* fetch_failures) {
  while (!walk->done()) {
    auto it = fetched->find(walk->docs[walk->next]);
    if (it == fetched->end()) return;
    ++walk->next;
    FetchedDoc& doc = it->second;
    if (doc.failed) {
      if (!doc.counted) ++*fetch_failures;
      doc.counted = true;
      continue;
    }
    for (const SentimentHit& hit : doc.hits) {
      if (walk->full()) break;
      if (hit.polarity == walk->polarity) walk->hits.push_back(hit);
    }
  }
}

// Fills the walks in rounds and returns the node calls made. A round takes
// each unfinished walk's next `limit - hits` docs, fetches the ones no
// earlier round fetched with one call per node, in ascending node order
// so fault verdicts replay from the seed, then advances every walk.
// Another round runs only while a walk is short and has docs left. The
// deadline is checked before each call: once it is spent, the walks stop
// at the first doc not fetched, which is not a failure.
size_t FetchInRounds(const Cluster& cluster, const std::string& subject,
                     const Deadline& deadline, std::span<HitWalk> walks,
                     SentimentQueryResult* result) {
  auto unfinished = [&walks] {
    return std::any_of(walks.begin(), walks.end(),
                       [](const HitWalk& w) { return !w.done(); });
  };
  std::map<std::string, FetchedDoc> fetched;
  size_t calls = 0;
  while (unfinished()) {
    std::vector<std::set<std::string>> by_node(cluster.node_count());
    for (const HitWalk& walk : walks) {
      if (walk.done()) continue;
      const size_t end = std::min(walk.docs.size(),
                                  walk.next + walk.limit - walk.hits.size());
      for (size_t i = walk.next; i < end; ++i) {
        const std::string& doc = walk.docs[i];
        if (!fetched.contains(doc)) by_node[cluster.Route(doc)].insert(doc);
      }
    }
    bool cut = false;
    for (size_t node = 0; node < by_node.size(); ++node) {
      if (by_node[node].empty()) continue;
      if (!deadline.infinite() && deadline.expired()) {
        cut = true;
        break;
      }
      FetchFromNode(cluster, node, by_node[node], subject, deadline,
                    &fetched);
      ++calls;
    }
    for (HitWalk& walk : walks) {
      Advance(&fetched, &walk, &result->fetch_failures);
    }
    if (cut) {
      result->deadline_expired = unfinished();
      break;
    }
  }
  return calls;
}

}  // namespace

std::string EncodeQueryResult(const SentimentQueryResult& result) {
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
  out.emplace_back("complete", result.complete() ? "1" : "0");
  for (const SentimentHit& hit : result.hits) {
    out.emplace_back(
        "hit", common::StrFormat(
                   "%s\t%s\t%s", hit.doc_id.c_str(),
                   hit.polarity == Polarity::kPositive ? "+" : "-",
                   hit.sentence.c_str()));
  }
  return EncodeMessage(out);
}

common::Status SentimentQueryService::RegisterService() {
  return cluster_->bus().RegisterService(
      "app/sentiment_query", [this](const std::string& request) {
        return EncodeQueryResult(Query(GetMessageField(request, "subject")));
      });
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

  HitWalk walks[] = {
      {Polarity::kPositive, pos_docs.docs, max_hits - max_hits / 2},
      {Polarity::kNegative, neg_docs.docs, max_hits / 2}};
  const size_t fetch_calls =
      FetchInRounds(*cluster_, subject, deadline, walks, &result);
  result.hits = std::move(walks[0].hits);
  result.hits.insert(result.hits.end(), walks[1].hits.begin(),
                     walks[1].hits.end());
  RecordQueryMetrics(cluster_->metrics(), "offline", result, fetch_calls);
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
    auto entity = Entity::DecodeRecord(GetMessageField(*response, "entity"));
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
  RecordQueryMetrics(cluster_->metrics(), "runtime", result,
                     candidates.docs.size());
  return result;
}

std::vector<std::string> SentimentQueryService::KnownSubjects(
    SearchResult* coverage) const {
  SearchResult terms = cluster_->Vocabulary("sent/");
  std::set<std::string> subjects;
  for (const std::string& term : terms.docs) {
    // "sent/<pol>/<subject>"
    std::vector<std::string> parts = common::SplitExact(term, "/");
    if (parts.size() != 3) continue;
    std::string name = parts[2];
    for (char& c : name) {
      if (c == '_') c = ' ';
    }
    subjects.insert(name);
  }
  if (coverage != nullptr) *coverage = std::move(terms);
  return std::vector<std::string>(subjects.begin(), subjects.end());
}

}  // namespace wf::platform
