#include <gtest/gtest.h>

#include "text/inflection.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace wf::text {
namespace {

std::vector<std::string> Surfaces(const TokenStream& tokens) {
  std::vector<std::string> out;
  for (const Token& t : tokens) out.emplace_back(t.text);
  return out;
}

// --- Tokenizer -----------------------------------------------------------------

TEST(TokenizerTest, SimpleSentence) {
  Tokenizer t;
  EXPECT_EQ(Surfaces(t.Tokenize("The camera works.")),
            (std::vector<std::string>{"The", "camera", "works", "."}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("  \t\n ").empty());
}

TEST(TokenizerTest, PunctuationIsSeparate) {
  Tokenizer t;
  EXPECT_EQ(Surfaces(t.Tokenize("Wow, really?")),
            (std::vector<std::string>{"Wow", ",", "really", "?"}));
}

TEST(TokenizerTest, CliticsSplitPennStyle) {
  Tokenizer t;
  EXPECT_EQ(Surfaces(t.Tokenize("don't")),
            (std::vector<std::string>{"do", "n't"}));
  EXPECT_EQ(Surfaces(t.Tokenize("it's")),
            (std::vector<std::string>{"it", "'s"}));
  EXPECT_EQ(Surfaces(t.Tokenize("we'll we've they're I'm I'd")),
            (std::vector<std::string>{"we", "'ll", "we", "'ve", "they",
                                      "'re", "I", "'m", "I", "'d"}));
}

TEST(TokenizerTest, CliticSplitDisabled) {
  TokenizerOptions options;
  options.split_clitics = false;
  Tokenizer t(options);
  EXPECT_EQ(Surfaces(t.Tokenize("don't")),
            (std::vector<std::string>{"don't"}));
}

TEST(TokenizerTest, AbbreviationsKeepPeriod) {
  Tokenizer t;
  EXPECT_EQ(Surfaces(t.Tokenize("Prof. Wilson met Dr. Smith.")),
            (std::vector<std::string>{"Prof.", "Wilson", "met", "Dr.",
                                      "Smith", "."}));
}

TEST(TokenizerTest, DottedAcronym) {
  Tokenizer t;
  std::vector<std::string> got = Surfaces(t.Tokenize("The U.S. market"));
  EXPECT_EQ(got, (std::vector<std::string>{"The", "U.S.", "market"}));
}

TEST(TokenizerTest, NumbersWithDecimalAndComma) {
  Tokenizer t;
  TokenStream tokens = t.Tokenize("It costs 1,299.50 dollars");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[2].text, "1,299.50");
  EXPECT_EQ(tokens[2].kind, TokenKind::kNumber);
}

TEST(TokenizerTest, HyphenatedWordStaysTogether) {
  Tokenizer t;
  EXPECT_EQ(Surfaces(t.Tokenize("an add-on adapter")),
            (std::vector<std::string>{"an", "add-on", "adapter"}));
}

TEST(TokenizerTest, EllipsisAndRepeatedMarks) {
  Tokenizer t;
  EXPECT_EQ(Surfaces(t.Tokenize("Wait... what!!")),
            (std::vector<std::string>{"Wait", "...", "what", "!!"}));
}

TEST(TokenizerTest, OffsetsCoverSourceSlices) {
  Tokenizer t;
  std::string input = "The NR70, unlike the T series, doesn't lag.";
  for (const Token& tok : t.Tokenize(input)) {
    ASSERT_LE(tok.end, input.size());
    ASSERT_LT(tok.begin, tok.end);
  }
}

TEST(TokenizerTest, OffsetsMonotoneNonOverlapping) {
  Tokenizer t;
  std::string input =
      "I bought it on March 3rd; the U.S. price was $399.99 (too high!).";
  TokenStream tokens = t.Tokenize(input);
  for (size_t i = 1; i < tokens.size(); ++i) {
    EXPECT_GE(tokens[i].begin, tokens[i - 1].begin);
    EXPECT_LE(tokens[i - 1].end, tokens[i].end);
  }
}

TEST(TokenizerTest, NonCliticTokensMatchSourceSlice) {
  Tokenizer t;
  std::string input = "The Memory Stick support is well implemented.";
  for (const Token& tok : t.Tokenize(input)) {
    EXPECT_EQ(tok.text, input.substr(tok.begin, tok.end - tok.begin));
  }
}

TEST(TokenizerTest, SymbolsClassified) {
  Tokenizer t;
  TokenStream tokens = t.Tokenize("$ % &");
  ASSERT_EQ(tokens.size(), 3u);
  for (const Token& tok : tokens) {
    EXPECT_EQ(tok.kind, TokenKind::kSymbol);
  }
}

// --- Sentence splitter -----------------------------------------------------------

std::vector<size_t> SentenceSizes(const std::string& text) {
  Tokenizer t;
  SentenceSplitter s;
  TokenStream tokens = t.Tokenize(text);
  std::vector<size_t> sizes;
  for (const SentenceSpan& span : s.Split(tokens)) {
    sizes.push_back(span.size());
  }
  return sizes;
}

TEST(SentenceSplitterTest, SplitsOnTerminators) {
  EXPECT_EQ(SentenceSizes("One two. Three! Four?").size(), 3u);
}

TEST(SentenceSplitterTest, AbbreviationDoesNotSplit) {
  EXPECT_EQ(SentenceSizes("Dr. Smith arrived. He left.").size(), 2u);
}

TEST(SentenceSplitterTest, TrailingTextWithoutTerminator) {
  EXPECT_EQ(SentenceSizes("Complete sentence. trailing fragment").size(),
            2u);
}

TEST(SentenceSplitterTest, EmptyInput) {
  EXPECT_TRUE(SentenceSizes("").empty());
}

TEST(SentenceSplitterTest, ClosingQuoteStaysInSentence) {
  Tokenizer t;
  SentenceSplitter s;
  TokenStream tokens = t.Tokenize("He said \"go.\" Then left.");
  std::vector<SentenceSpan> spans = s.Split(tokens);
  ASSERT_EQ(spans.size(), 2u);
  // The quote after the period belongs to the first sentence.
  EXPECT_EQ(tokens[spans[0].end_token - 1].text, "\"");
}

TEST(SentenceSplitterTest, SpansPartitionTheStream) {
  Tokenizer t;
  SentenceSplitter s;
  TokenStream tokens =
      t.Tokenize("First one. Second one! Third? And a fragment");
  std::vector<SentenceSpan> spans = s.Split(tokens);
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().begin_token, 0u);
  EXPECT_EQ(spans.back().end_token, tokens.size());
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].begin_token, spans[i - 1].end_token);
  }
}

// --- Inflection -------------------------------------------------------------------

struct InflectionCase {
  const char* input;
  const char* expected;
};

// gtest prints the parameter into every listed test name. Without this it
// dumps the struct's raw bytes, two string-literal addresses that move with
// every load of the binary, so the names changed from one build to the next.
void PrintTo(const InflectionCase& c, std::ostream* os) { *os << c.input; }

class SingularizeTest : public ::testing::TestWithParam<InflectionCase> {};

TEST_P(SingularizeTest, Singularizes) {
  EXPECT_EQ(SingularizeNoun(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Nouns, SingularizeTest,
    ::testing::Values(
        InflectionCase{"cameras", "camera"},
        InflectionCase{"batteries", "battery"},
        InflectionCase{"lenses", "lens"},
        InflectionCase{"lens", "lens"},
        InflectionCase{"watches", "watch"},
        InflectionCase{"glasses", "glass"},
        InflectionCase{"boxes", "box"},
        InflectionCase{"children", "child"},
        InflectionCase{"people", "person"},
        InflectionCase{"mice", "mouse"},
        InflectionCase{"series", "series"},
        InflectionCase{"analysis", "analysis"},
        InflectionCase{"heroes", "hero"},
        InflectionCase{"lives", "life"},
        InflectionCase{"camera", "camera"},
        InflectionCase{"bus", "bus"},
        InflectionCase{"news", "news"}));

class VerbLemmaTest : public ::testing::TestWithParam<InflectionCase> {};

TEST_P(VerbLemmaTest, Lemmatizes) {
  EXPECT_EQ(VerbLemma(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Verbs, VerbLemmaTest,
    ::testing::Values(
        InflectionCase{"takes", "take"}, InflectionCase{"took", "take"},
        InflectionCase{"taken", "take"}, InflectionCase{"taking", "take"},
        InflectionCase{"is", "be"}, InflectionCase{"was", "be"},
        InflectionCase{"were", "be"}, InflectionCase{"been", "be"},
        InflectionCase{"impressed", "impress"},
        InflectionCase{"impresses", "impress"},
        InflectionCase{"loved", "love"}, InflectionCase{"loves", "love"},
        InflectionCase{"amazed", "amaze"},
        InflectionCase{"stopped", "stop"},
        InflectionCase{"planning", "plan"},
        InflectionCase{"carries", "carry"},
        InflectionCase{"satisfied", "satisfy"},
        InflectionCase{"watches", "watch"},
        InflectionCase{"passes", "pass"},
        InflectionCase{"called", "call"},
        InflectionCase{"failed", "fail"},
        InflectionCase{"delivered", "deliver"},
        InflectionCase{"works", "work"},
        InflectionCase{"thought", "think"},
        InflectionCase{"bought", "buy"},
        InflectionCase{"went", "go"},
        InflectionCase{"offers", "offer"},
        InflectionCase{"equipped", "equip"},
        InflectionCase{"'s", "be"}, InflectionCase{"'re", "be"}));

class AdjectiveBaseTest : public ::testing::TestWithParam<InflectionCase> {};

TEST_P(AdjectiveBaseTest, Bases) {
  EXPECT_EQ(AdjectiveBase(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Adjectives, AdjectiveBaseTest,
    ::testing::Values(InflectionCase{"bigger", "big"},
                      InflectionCase{"biggest", "big"},
                      InflectionCase{"happier", "happy"},
                      InflectionCase{"nicer", "nice"},
                      InflectionCase{"better", "good"},
                      InflectionCase{"worst", "bad"},
                      InflectionCase{"sharp", "sharp"},
                      InflectionCase{"sharper", "sharp"}));

TEST(NegationWordTest, RecognizesPaperList) {
  // §4.2: not, no, never, hardly, seldom, little.
  for (const char* w :
       {"not", "no", "never", "hardly", "seldom", "little", "n't"}) {
    EXPECT_TRUE(IsNegationWord(w)) << w;
  }
  EXPECT_FALSE(IsNegationWord("very"));
  EXPECT_FALSE(IsNegationWord("lacks"));
  EXPECT_TRUE(IsNegationWord("Never"));  // case-insensitive
}

}  // namespace
}  // namespace wf::text
