#include "core/miner.h"

#include "common/arena.h"

namespace wf::core {

using ::wf::lexicon::Polarity;

namespace {

// Surface text of a token range, reconstructed from token surfaces.
std::string RangeText(const text::TokenStream& tokens, size_t begin,
                      size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    if (!out.empty() && tokens[i].kind == text::TokenKind::kWord) out += ' ';
    if (!out.empty() && tokens[i].kind != text::TokenKind::kWord &&
        tokens[i].text != "." && tokens[i].text != "," &&
        tokens[i].text != "!" && tokens[i].text != "?" &&
        tokens[i].text != ";" && tokens[i].text != ":" &&
        tokens[i].text != "'s" && tokens[i].text != "n't") {
      out += ' ';
    }
    out += tokens[i].text;
  }
  return out;
}

}  // namespace

SentimentMiner::SentimentMiner(const lexicon::SentimentLexicon* lexicon,
                               const lexicon::PatternDatabase* patterns,
                               const Config& config)
    : lexicon_(lexicon),
      config_(config),
      analyzer_(lexicon, patterns, config.analyzer),
      context_builder_(config.context) {}

void SentimentMiner::AddSubject(const spot::SynonymSet& subject) {
  spotter_.AddSynonymSet(subject);
}

void SentimentMiner::AddTopicTerms(const spot::TopicTermSet& topic) {
  disambiguator_.AddTopic(topic);
}

void SentimentMiner::ProcessDocument(const std::string& doc_id,
                                     LinguisticAnalysis& analysis,
                                     SentimentStore* store) {
  const text::TokenStream& tokens = analysis.tokens;
  const std::vector<text::SentenceSpan>& spans = analysis.sentences;
  std::vector<spot::SubjectSpot> spots = spotter_.Spot(tokens);
  if (spots.empty()) return;

  // Disambiguation.
  std::vector<spot::SubjectSpot> on_topic;
  if (config_.use_disambiguator) {
    const spot::CorpusStats* stats = external_stats_;
    if (stats == nullptr) {
      own_stats_.AddDocument(tokens);
      stats = &own_stats_;
    }
    for (const spot::DisambiguationResult& r :
         disambiguator_.Evaluate(tokens, spots, *stats)) {
      if (r.on_topic) on_topic.push_back(r.spot);
    }
  } else {
    on_topic = spots;
  }

  for (const spot::SubjectSpot& spot : on_topic) {
    SentimentContext ctx;
    if (!context_builder_.Build(spans, spot.begin_token, &ctx)) continue;

    SubjectSentiment verdict = analyzer_.AnalyzeSubject(
        tokens, analysis.ClauseAt(ctx.sentence_index, spot.begin_token),
        spot.begin_token, spot.end_token);

    // Context-window fragment attribution ("I bought it in May. Big
    // mistake."): a short verbless follow-up carries the sentiment.
    if (config_.attribute_fragments &&
        verdict.polarity == Polarity::kNeutral &&
        ctx.sentence_index + 1 < spans.size()) {
      const text::SentenceSpan& next = spans[ctx.sentence_index + 1];
      if (next.size() <= 6) {
        // The rule asks whether the whole fragment has a predicate, so it
        // parses the fragment as one clause rather than reading the
        // artifact's clause split.
        common::Arena frag_arena;
        common::StringInterner frag_interner(&frag_arena);
        parse::SentenceParse frag = sentence_analyzer_.Analyze(
            tokens, next, analysis.Tags(ctx.sentence_index + 1),
            &frag_interner);
        if (frag.predicate_chunk < 0) {
          PhraseSentimentScorer scorer(lexicon_);
          Polarity p = scorer.Score(tokens, frag, next.begin_token,
                                    next.end_token);
          if (p != Polarity::kNeutral) {
            verdict.polarity = p;
            verdict.source = SentimentSource::kCrossSentence;
            verdict.pattern.clear();
          }
        }
      }
    }
    if (!config_.record_neutral &&
        verdict.polarity == Polarity::kNeutral) {
      continue;
    }

    const spot::SynonymSet* set = spotter_.FindSet(spot.synset_id);
    SentimentMention m;
    m.doc_id = doc_id;
    m.subject = set != nullptr ? set->canonical : "?";
    m.synset_id = spot.synset_id;
    m.polarity = verdict.polarity;
    m.source = verdict.source;
    m.pattern = verdict.pattern;
    m.sentence_text =
        RangeText(tokens, ctx.sentence.begin_token, ctx.sentence.end_token);
    m.sentence_index = ctx.sentence_index;
    m.sentence_begin = tokens[ctx.sentence.begin_token].begin;
    m.sentence_end = tokens[ctx.sentence.end_token - 1].end;
    store->Add(std::move(m));
  }
}

AdHocSentimentMiner::AdHocSentimentMiner(
    const lexicon::SentimentLexicon* lexicon,
    const lexicon::PatternDatabase* patterns, const Config& config)
    : analyzer_(lexicon, patterns, config.analyzer), ner_(config.ner) {}

void AdHocSentimentMiner::ProcessDocument(const std::string& doc_id,
                                          LinguisticAnalysis& analysis,
                                          SentimentStore* store) const {
  const text::TokenStream& tokens = analysis.tokens;
  const std::vector<text::SentenceSpan>& spans = analysis.sentences;
  for (size_t s = 0; s < spans.size(); ++s) {
    const text::SentenceSpan& span = spans[s];
    std::vector<ner::NamedEntity> entities = ner_.SpotSentence(tokens, span);
    if (entities.empty()) continue;

    for (const ner::NamedEntity& e : entities) {
      SubjectSentiment verdict = analyzer_.AnalyzeSubject(
          tokens, analysis.ClauseAt(s, e.begin_token), e.begin_token,
          e.end_token);
      if (verdict.polarity == Polarity::kNeutral) continue;

      SentimentMention m;
      m.doc_id = doc_id;
      m.subject = e.text;
      m.synset_id = -1;
      m.polarity = verdict.polarity;
      m.source = verdict.source;
      m.pattern = verdict.pattern;
      m.sentence_text = RangeText(tokens, span.begin_token, span.end_token);
      m.sentence_index = s;
      m.sentence_begin = tokens[span.begin_token].begin;
      m.sentence_end = tokens[span.end_token - 1].end;
      store->Add(std::move(m));
    }
  }
}

}  // namespace wf::core
