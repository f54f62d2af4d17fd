#ifndef WF_TEXT_TOKEN_H_
#define WF_TEXT_TOKEN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace wf::text {

enum class TokenKind : uint8_t {
  kWord = 0,   // alphabetic (may contain internal hyphens/apostrophes)
  kNumber,     // 12, 3.5, 1,024
  kPunct,      // . , ; : ! ? " ( ) ...
  kSymbol,     // $, %, &, etc.
};

// One token of the input text. Offsets are byte offsets into the original
// document, so every annotation downstream can be mapped back to the source
// (end is exclusive). `text` is a zero-copy view of the surface form,
// slicing the tokenized input: even clitics split per Penn Treebank
// conventions ("don't" -> "do" + "n't") split at a source byte boundary, so
// both halves remain exact slices. Tokens are therefore only valid while
// the tokenized buffer lives — LinguisticAnalysis roots that buffer in its
// arena (DESIGN.md §15); transient callers keep the input in scope.
struct Token {
  std::string_view text;
  size_t begin = 0;
  size_t end = 0;
  TokenKind kind = TokenKind::kWord;

  friend bool operator==(const Token& a, const Token& b) {
    return a.text == b.text && a.begin == b.begin && a.end == b.end &&
           a.kind == b.kind;
  }
};

using TokenStream = std::vector<Token>;

// Half-open token range [begin, end) identifying a sentence within a
// TokenStream.
struct SentenceSpan {
  size_t begin_token = 0;
  size_t end_token = 0;

  size_t size() const { return end_token - begin_token; }
  bool empty() const { return end_token <= begin_token; }

  friend bool operator==(const SentenceSpan& a, const SentenceSpan& b) {
    return a.begin_token == b.begin_token && a.end_token == b.end_token;
  }
};

}  // namespace wf::text

#endif  // WF_TEXT_TOKEN_H_
