#include "core/analysis.h"

#include <utility>

#include "parse/sentence_structure.h"
#include "pos/tagger.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace wf::core {

std::shared_ptr<const LinguisticAnalysis> AnalyzeDocument(
    std::string_view body) {
  // The tagger's constructor builds the embedded lexicon, which is far too
  // expensive to pay per document. All four stages are const after
  // construction, so one shared instance serves every thread. Leaked on
  // purpose: miners may analyze during static destruction of tests.
  static const pos::PosTagger* const tagger = new pos::PosTagger();
  static const text::Tokenizer tokenizer{};
  static const text::SentenceSplitter splitter{};
  static const parse::SentenceAnalyzer analyzer{};

  auto analysis = std::make_shared<LinguisticAnalysis>();
  // Copy the body into the arena first: every token view slices this copy,
  // so the artifact is self-contained no matter how transient the caller's
  // buffer is (LSM reads hand us temporaries).
  analysis->body = analysis->arena.CopyString(body);
  // The interner is construction-only scaffolding — its bytes live in the
  // arena, its dedup set dies here.
  common::StringInterner interner(&analysis->arena);
  analysis->tokens = tokenizer.Tokenize(analysis->body);
  analysis->sentences = splitter.Split(analysis->tokens);
  analysis->sentence_tags.reserve(analysis->sentences.size());
  analysis->sentence_clauses.reserve(analysis->sentences.size());
  for (const text::SentenceSpan& span : analysis->sentences) {
    std::vector<pos::PosTag> tags = tagger->TagSentence(analysis->tokens, span);
    analysis->sentence_clauses.push_back(
        analyzer.AnalyzeClauses(analysis->tokens, span, tags, &interner));
    analysis->sentence_tags.push_back(std::move(tags));
  }
  return analysis;
}

}  // namespace wf::core
