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

// The per-document linguistic-analysis artifact: everything the
// tokenize -> sentence-split -> POS-tag -> shallow-parse front half of the
// mining pipeline produces, computed once per entity per sweep and shared
// by every miner in that entity's chain. Immutable after construction, so
// one artifact may be read concurrently from any number of mining workers.
//
// The artifact is a pure function of the document body (all stages are
// deterministic rule systems with fixed embedded resources), so sharing it
// across miners is invisible in their output.
//
// Memory layout (DESIGN.md §15): the artifact owns a bump arena holding a
// copy of the document body plus every interned string the front half
// produced. Token::text views slice the body copy; parse lemmas and
// prepositions are interner-owned views. The arena lives exactly as long
// as the artifact, so any holder of the shared_ptr keeps every view
// valid, and destruction frees the whole analysis in O(blocks).
// Non-copyable (the views would dangle); share via shared_ptr.
struct LinguisticAnalysis {
  common::Arena arena;    // owns body bytes + interned strings
  std::string_view body;  // arena-owned copy of the analyzed document body
  text::TokenStream tokens;
  std::vector<text::SentenceSpan> sentences;
  // Per sentence, aligned with that sentence's tokens — exactly what
  // pos::PosTagger::TagSentence returns for sentences[s].
  std::vector<std::vector<pos::PosTag>> sentence_tags;
  // Per sentence, the clause-level shallow parses — exactly what
  // parse::SentenceAnalyzer::AnalyzeClauses returns for sentences[s].
  std::vector<std::vector<parse::SentenceParse>> sentence_clauses;
};

// Computes the full artifact for one document body with the default
// tokenizer/splitter/tagger/parser configuration (the same defaults the
// core miners embed). Deterministic; never returns null.
std::shared_ptr<const LinguisticAnalysis> AnalyzeDocument(
    std::string_view body);

}  // namespace wf::core

#endif  // WF_CORE_ANALYSIS_H_
