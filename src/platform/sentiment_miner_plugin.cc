#include "platform/sentiment_miner_plugin.h"

#include "common/string_util.h"

namespace wf::platform {

using ::wf::common::Status;
using ::wf::core::SentimentMention;
using ::wf::core::SentimentStore;
using ::wf::lexicon::Polarity;

std::string SentimentConceptToken(const std::string& subject,
                                  lexicon::Polarity polarity) {
  std::string subj = common::ToLower(subject);
  for (char& c : subj) {
    if (c == ' ') c = '_';
  }
  const char* pol = polarity == Polarity::kPositive   ? "+"
                    : polarity == Polarity::kNegative ? "-"
                                                      : "0";
  return common::StrFormat("sent/%s/%s", pol, subj.c_str());
}

namespace {

void RecordMentions(const SentimentStore& store, Entity& entity) {
  for (const SentimentMention& m : store.mentions()) {
    if (m.polarity == Polarity::kNeutral) continue;
    AnnotationSpan span;
    span.begin = m.sentence_begin;
    span.end = m.sentence_end;
    span.attrs["subject"] = m.subject;
    // Single-char assign sidesteps a GCC 12 -Wrestrict false positive on
    // `string = cond ? "+" : "-"` at -O2.
    span.attrs["polarity"].assign(
        1, m.polarity == Polarity::kPositive ? '+' : '-');
    span.attrs["pattern"] = m.pattern;
    span.attrs["sentence"] = m.sentence_text;
    entity.AddAnnotation("sentiment", std::move(span));
    entity.AddConceptToken(SentimentConceptToken(m.subject, m.polarity));
  }
}

}  // namespace

common::Status AdHocSentimentMinerPlugin::Process(Entity& entity,
                                                  const MineContext& context) {
  SentimentStore store;
  miner_.ProcessDocument(entity.id(), context.analysis, &store);
  RecordMentions(store, entity);
  return Status::Ok();
}

SubjectSentimentMinerPlugin::SubjectSentimentMinerPlugin(
    const lexicon::SentimentLexicon* lexicon,
    const lexicon::PatternDatabase* patterns,
    std::vector<spot::SynonymSet> subjects)
    : miner_(lexicon, patterns) {
  for (spot::SynonymSet& s : subjects) {
    miner_.AddSubject(std::move(s));
  }
}

common::Status SubjectSentimentMinerPlugin::Process(
    Entity& entity, const MineContext& context) {
  SentimentStore store;
  miner_.ProcessDocument(entity.id(), context.analysis, &store);
  RecordMentions(store, entity);
  return Status::Ok();
}

}  // namespace wf::platform
