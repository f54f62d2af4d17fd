#include "core/analysis.h"

#include "parse/sentence_structure.h"
#include "pos/tagger.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace wf::core {

LinguisticAnalysis::LinguisticAnalysis(std::string_view document) {
  static const text::Tokenizer tokenizer{};
  static const text::SentenceSplitter splitter{};
  // Copy the body into the arena first: every token view slices this copy,
  // so the artifact is self-contained no matter how transient the caller's
  // buffer is (LSM reads hand us temporaries).
  body = arena.CopyString(document);
  tokens = tokenizer.Tokenize(body);
  sentences = splitter.Split(tokens);
  tags_.resize(sentences.size());
  clauses_.resize(sentences.size());
}

const std::vector<pos::PosTag>& LinguisticAnalysis::Tags(size_t s) {
  // The tagger's constructor builds the embedded lexicon, which is far too
  // expensive to pay per document. It is const after construction, so one
  // shared instance serves every thread. Leaked on purpose: miners may
  // analyze during static destruction of tests.
  static const pos::PosTagger* const tagger = new pos::PosTagger();
  std::vector<pos::PosTag>& tags = tags_[s];
  if (tags.empty()) tags = tagger->TagSentence(tokens, sentences[s]);
  return tags;
}

const std::vector<parse::SentenceParse>& LinguisticAnalysis::Clauses(
    size_t s) {
  static const parse::SentenceAnalyzer analyzer{};
  std::vector<parse::SentenceParse>& clauses = clauses_[s];
  if (clauses.empty()) {
    clauses = analyzer.AnalyzeClauses(tokens, sentences[s], Tags(s),
                                      &interner_);
  }
  return clauses;
}

const parse::SentenceParse& LinguisticAnalysis::ClauseAt(size_t s,
                                                         size_t token) {
  const std::vector<parse::SentenceParse>& clauses = Clauses(s);
  for (const parse::SentenceParse& clause : clauses) {
    if (token >= clause.span.begin_token && token < clause.span.end_token) {
      return clause;
    }
  }
  return clauses.front();
}

std::unique_ptr<LinguisticAnalysis> AnalyzeDocument(std::string_view body) {
  return std::make_unique<LinguisticAnalysis>(body);
}

}  // namespace wf::core
