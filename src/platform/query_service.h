#ifndef WF_PLATFORM_QUERY_SERVICE_H_
#define WF_PLATFORM_QUERY_SERVICE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/miner.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/cluster.h"

namespace wf::platform {

// One sentiment-bearing sentence returned to an application.
struct SentimentHit {
  std::string doc_id;
  std::string subject;
  lexicon::Polarity polarity = lexicon::Polarity::kNeutral;
  std::string sentence;
  std::string pattern;
};

// Aggregate answer for a subject query. Coverage counters make partial
// answers visible: on a degraded cluster the query still completes, and
// `nodes_responded < nodes_total` tells the application the counts are a
// lower bound rather than the whole corpus.
struct SentimentQueryResult {
  std::string subject;
  size_t positive_docs = 0;  // documents with >= 1 positive mention
  size_t negative_docs = 0;
  std::vector<SentimentHit> hits;
  size_t nodes_total = 0;      // shards the query scattered to
  size_t nodes_responded = 0;  // shards that answered every search RPC
  // Docs the hit walk reached whose node's fetch call failed after
  // retries, each counted once; the walk skips them.
  size_t fetch_failures = 0;
  // True when the caller's deadline expired mid-query and later stages
  // (hit fetches, or the whole scatter) were skipped — the answer is a
  // partial snapshot, never a stalled wait.
  bool deadline_expired = false;
  bool complete() const {
    return nodes_responded == nodes_total && fetch_failures == 0 &&
           !deadline_expired;
  }
};

// The wire form of a query result, shared by the app/sentiment_query
// service and the serving front door: subject, doc counts, coverage and
// complete=0|1, then hit=<doc>\t<+|->\t<sentence> per hit. A pure function
// of the result, so equal results encode to identical bytes (coalesced
// front-door followers and cache hits rely on it).
std::string EncodeQueryResult(const SentimentQueryResult& result);

// The hosted Web-service side of the system: answers real-time sentiment
// queries about arbitrary subjects from the sentiment index built offline
// by the Mode-B miner (Figure 3). All cluster access goes through the
// Vinci bus (scatter/gather), never through node memory.
class SentimentQueryService {
 public:
  // `cluster` must outlive the service; its nodes must have been mined and
  // indexed with a sentiment plugin.
  explicit SentimentQueryService(Cluster* cluster) : cluster_(cluster) {}

  // Registers the "app/sentiment_query" service on the cluster bus so
  // remote applications can call it with "subject=<name>".
  common::Status RegisterService();

  // Sentiment roll-up plus at most `max_hits` matching sentences for
  // `subject` (case insensitive; multi-word subjects allowed), split
  // between the polarities with the odd one going to positive. Hits are
  // fetched in rounds of one multi-id node/<i>/fetch call per node. The
  // remaining `deadline` budget rides both search scatters and every
  // fetch call; once it is spent the query stops where it stands
  // (deadline_expired set, remaining fetches skipped) instead of letting
  // downstream calls outlive the caller.
  SentimentQueryResult Query(const std::string& subject, size_t max_hits = 50,
                             const Deadline& deadline = Deadline()) const;

  // Subjects with at least one indexed sentiment, gathered over the bus
  // from the nodes' concept-token vocabularies (for dashboards). A node
  // that does not answer is missing from the list; `coverage`, when given,
  // receives the gather's SearchResult to say so.
  std::vector<std::string> KnownSubjects(
      SearchResult* coverage = nullptr) const;

 private:
  Cluster* cluster_;
};

// The alternative §3 dismisses for latency reasons: run the sentiment
// analysis *at query time*. The subject term is looked up in the text
// index, the matching entities are fetched over the bus, and the full NLP
// pipeline runs on each of them before the answer can be assembled. Kept
// as a first-class implementation so the offline-vs-runtime trade-off is
// measurable (bench_modeb_latency); results are identical to the offline
// path on unchanged corpora.
class RuntimeSentimentQueryService {
 public:
  // Pointers must outlive the service.
  RuntimeSentimentQueryService(Cluster* cluster,
                               const lexicon::SentimentLexicon* lexicon,
                               const lexicon::PatternDatabase* patterns)
      : cluster_(cluster), lexicon_(lexicon), patterns_(patterns) {}

  // Same contract as SentimentQueryService::Query, computed from scratch.
  SentimentQueryResult Query(const std::string& subject,
                             size_t max_hits = 50) const;

 private:
  Cluster* cluster_;
  const lexicon::SentimentLexicon* lexicon_;
  const lexicon::PatternDatabase* patterns_;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_QUERY_SERVICE_H_
