#ifndef WF_CORE_ANALYSIS_H_
#define WF_CORE_ANALYSIS_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "parse/sentence_structure.h"
#include "pos/tagset.h"
#include "text/token.h"

namespace wf::core {

// The per-document linguistic-analysis artifact: the tokenize ->
// sentence-split -> POS-tag -> shallow-parse front half of the mining
// pipeline, built once per entity per sweep and shared by every miner in
// that entity's chain. Tokens and sentences are computed up front; a
// sentence's tags and clauses are computed the first time a miner asks for
// them and kept, so a document pays to parse only the sentences some miner
// reads (the paper's Figure 2 spots subjects before anything is parsed).
//
// Every stage is a deterministic rule system with fixed embedded
// resources, so each accessor is a pure function of the body: when (or
// whether) a sentence is parsed is invisible in miner output.
//
// One owner on one thread: the lazy accessors fill the artifact in place,
// so it needs no lock only because it never leaves its entity's chain.
//
// Memory layout (DESIGN.md §15): the arena holds a copy of the document
// body plus every lemma and preposition the parses intern. Token::text
// views slice the body copy. The arena lives exactly as long as the
// artifact, and destruction frees the whole analysis in O(blocks).
// Non-copyable and non-movable (the views would dangle).
class LinguisticAnalysis {
 public:
  explicit LinguisticAnalysis(std::string_view document);

  // Per sentence, aligned with that sentence's tokens — exactly what
  // pos::PosTagger::TagSentence returns for sentences[s].
  const std::vector<pos::PosTag>& Tags(size_t s);
  // The clause-level shallow parses of sentences[s] — exactly what
  // parse::SentenceAnalyzer::AnalyzeClauses returns for it.
  const std::vector<parse::SentenceParse>& Clauses(size_t s);
  // The clause of sentences[s] holding `token`, or its first clause.
  const parse::SentenceParse& ClauseAt(size_t s, size_t token);

  common::Arena arena;    // owns body bytes + interned strings
  std::string_view body;  // arena-owned copy of the analyzed document body
  text::TokenStream tokens;
  std::vector<text::SentenceSpan> sentences;

 private:
  common::StringInterner interner_{&arena};
  // Indexed by sentence. A sentence has at least one token and one clause,
  // so an empty slot means "not computed yet".
  std::vector<std::vector<pos::PosTag>> tags_;
  std::vector<std::vector<parse::SentenceParse>> clauses_;
};

// Builds the artifact for one document body with the default
// tokenizer/splitter/tagger/parser configuration. Deterministic; never
// returns null.
std::unique_ptr<LinguisticAnalysis> AnalyzeDocument(std::string_view body);

}  // namespace wf::core

#endif  // WF_CORE_ANALYSIS_H_
