#include "eval/evaluator.h"

#include <memory>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/analysis.h"
#include "text/inflection.h"

namespace wf::eval {

using ::wf::common::EqualsIgnoreCase;
using ::wf::corpus::GeneratedDoc;
using ::wf::corpus::SpotGold;
using ::wf::lexicon::Polarity;

GoldEvaluator::GoldEvaluator()
    : lexicon_(lexicon::SentimentLexicon::Embedded()),
      patterns_(lexicon::PatternDatabase::Embedded()) {}

bool GoldEvaluator::LocateSubject(const text::TokenStream& tokens,
                                  const text::SentenceSpan& span,
                                  const std::string& subject, size_t* begin,
                                  size_t* end) const {
  text::TokenStream subj = tokenizer_.Tokenize(subject);
  if (subj.empty()) return false;
  for (size_t i = span.begin_token; i + subj.size() <= span.end_token; ++i) {
    bool match = true;
    for (size_t k = 0; k < subj.size(); ++k) {
      if (!EqualsIgnoreCase(tokens[i + k].text, subj[k].text)) {
        match = false;
        break;
      }
    }
    if (match) {
      *begin = i;
      *end = i + subj.size();
      return true;
    }
  }
  // Plural surface ("batteries" for gold subject "battery").
  if (subj.size() == 1) {
    for (size_t i = span.begin_token; i < span.end_token; ++i) {
      std::string lower = common::ToLower(tokens[i].text);
      if (text::SingularizeNoun(lower) ==
          common::ToLower(subj[0].text)) {
        *begin = i;
        *end = i + 1;
        return true;
      }
    }
  }
  return false;
}

Confusion GoldEvaluator::EvaluateMiner(const std::vector<GeneratedDoc>& docs,
                                       const EvalOptions& options,
                                       ClassBreakdown* breakdown) const {
  core::SentimentAnalyzer analyzer(&lexicon_, &patterns_, options.analyzer);
  Confusion confusion;
  for (const GeneratedDoc& doc : docs) {
    std::unique_ptr<core::LinguisticAnalysis> analysis =
        core::AnalyzeDocument(doc.body);
    const text::TokenStream& tokens = analysis->tokens;
    for (const SpotGold& gold : doc.golds) {
      if (options.skip_i_class && gold.i_class) continue;
      if (gold.sentence_index >= analysis->sentences.size()) continue;
      const text::SentenceSpan& span =
          analysis->sentences[gold.sentence_index];
      size_t begin = 0, end = 0;
      if (!LocateSubject(tokens, span, gold.subject, &begin, &end)) continue;
      core::SubjectSentiment verdict = analyzer.AnalyzeSubject(
          tokens, analysis->ClauseAt(gold.sentence_index, begin), begin, end);
      confusion.Add(gold.polarity, verdict.polarity);
      if (breakdown != nullptr) {
        breakdown->by_class[gold.template_class].Add(gold.polarity,
                                                     verdict.polarity);
      }
    }
  }
  return confusion;
}

Confusion GoldEvaluator::EvaluateCollocation(
    const std::vector<GeneratedDoc>& docs, const EvalOptions& options) const {
  baseline::CollocationAnalyzer colloc(&lexicon_);
  Confusion confusion;
  for (const GeneratedDoc& doc : docs) {
    text::TokenStream tokens = tokenizer_.Tokenize(doc.body);
    std::vector<text::SentenceSpan> spans = splitter_.Split(tokens);
    common::Arena arena;
    common::StringInterner interner(&arena);
    std::vector<int> cached(spans.size(), -1);
    std::vector<parse::SentenceParse> parses;
    for (const SpotGold& gold : doc.golds) {
      if (options.skip_i_class && gold.i_class) continue;
      if (gold.sentence_index >= spans.size()) continue;
      const text::SentenceSpan& span = spans[gold.sentence_index];
      size_t begin = 0, end = 0;
      if (!LocateSubject(tokens, span, gold.subject, &begin, &end)) continue;
      int& slot = cached[gold.sentence_index];
      if (slot < 0) {
        std::vector<pos::PosTag> tags = tagger_.TagSentence(tokens, span);
        parses.push_back(
            sentence_analyzer_.Analyze(tokens, span, tags, &interner));
        slot = static_cast<int>(parses.size()) - 1;
      }
      Polarity verdict = colloc.AnalyzeSubject(
          tokens, parses[static_cast<size_t>(slot)], begin, end);
      confusion.Add(gold.polarity, verdict);
    }
  }
  return confusion;
}

Confusion GoldEvaluator::EvaluateReviewSeerSentences(
    const baseline::ReviewSeerClassifier& classifier,
    const std::vector<GeneratedDoc>& docs, bool binary,
    const EvalOptions& options) const {
  Confusion confusion;
  for (const GeneratedDoc& doc : docs) {
    text::TokenStream tokens = tokenizer_.Tokenize(doc.body);
    std::vector<text::SentenceSpan> spans = splitter_.Split(tokens);
    std::vector<pos::PosTag> tags = tagger_.Tag(tokens, spans);
    for (const SpotGold& gold : doc.golds) {
      if (options.skip_i_class && gold.i_class) continue;
      if (gold.sentence_index >= spans.size()) continue;
      const text::SentenceSpan& span = spans[gold.sentence_index];
      if (options.only_sentiment_candidates &&
          gold.polarity == Polarity::kNeutral) {
        bool has_sentiment_word = false;
        for (size_t i = span.begin_token; i < span.end_token; ++i) {
          if (tokens[i].kind != text::TokenKind::kWord) continue;
          if (lexicon_.Lookup(tokens[i].text, tags[i]).has_value()) {
            has_sentiment_word = true;
            break;
          }
        }
        if (!has_sentiment_word) continue;
      }
      size_t b = tokens[span.begin_token].begin;
      size_t e = tokens[span.end_token - 1].end;
      std::string sentence = doc.body.substr(b, e - b);
      Polarity verdict;
      if (binary) {
        verdict = classifier.LogOdds(sentence) >= 0.0 ? Polarity::kPositive
                                                      : Polarity::kNegative;
      } else {
        verdict = classifier.Classify(sentence);
      }
      confusion.Add(gold.polarity, verdict);
    }
  }
  return confusion;
}

Confusion GoldEvaluator::EvaluateReviewSeerDocuments(
    const baseline::ReviewSeerClassifier& classifier,
    const std::vector<GeneratedDoc>& docs) const {
  Confusion confusion;
  for (const GeneratedDoc& doc : docs) {
    Polarity verdict = classifier.LogOdds(doc.body) >= 0.0
                           ? Polarity::kPositive
                           : Polarity::kNegative;
    confusion.Add(doc.doc_polarity, verdict);
  }
  return confusion;
}

}  // namespace wf::eval
