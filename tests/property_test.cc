// Randomized property tests: components are cross-checked against
// brute-force reference implementations on generated inputs. All RNG is
// seeded, so failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>

#include "common/durable_file.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/analysis.h"
#include "corpus/domain.h"
#include "corpus/web_gen.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"
#include "platform/entity.h"
#include "platform/indexer.h"
#include "platform/miner_framework.h"
#include "platform/sentiment_miner_plugin.h"
#include "platform/vinci.h"
#include "spot/spotter.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace wf {
namespace {

// Random word of lowercase letters.
std::string RandomWord(common::Rng& rng, size_t max_len = 8) {
  size_t len = static_cast<size_t>(rng.Uniform(1, static_cast<int64_t>(max_len)));
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>('a' + rng.Uniform(0, 25));
  }
  return out;
}

// Random "document" from a small shared vocabulary (so terms collide).
std::string RandomDoc(common::Rng& rng,
                      const std::vector<std::string>& vocab,
                      size_t words) {
  std::string out;
  for (size_t i = 0; i < words; ++i) {
    if (!out.empty()) out += ' ';
    out += rng.Pick(vocab);
    if (rng.Bernoulli(0.1)) out += '.';
  }
  return out;
}

// --- Tokenizer properties ------------------------------------------------------

TEST(TokenizerProperty, OffsetsAlwaysValidOnRandomAscii) {
  common::Rng rng(1001);
  text::Tokenizer tokenizer;
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    size_t len = static_cast<size_t>(rng.Uniform(0, 120));
    for (size_t i = 0; i < len; ++i) {
      input += static_cast<char>(rng.Uniform(32, 126));
    }
    text::TokenStream tokens = tokenizer.Tokenize(input);
    size_t prev_end = 0;
    for (const text::Token& t : tokens) {
      ASSERT_FALSE(t.text.empty()) << "input: " << input;
      ASSERT_LT(t.begin, t.end) << "input: " << input;
      ASSERT_LE(t.end, input.size()) << "input: " << input;
      ASSERT_GE(t.begin, prev_end) << "overlap in: " << input;
      prev_end = t.end;
    }
  }
}

TEST(TokenizerProperty, SentenceSpansPartitionAnyStream) {
  common::Rng rng(1002);
  text::Tokenizer tokenizer;
  text::SentenceSplitter splitter;
  std::vector<std::string> vocab;
  for (int i = 0; i < 30; ++i) vocab.push_back(RandomWord(rng));
  for (int trial = 0; trial < 100; ++trial) {
    std::string doc = RandomDoc(rng, vocab, 40);
    text::TokenStream tokens = tokenizer.Tokenize(doc);
    std::vector<text::SentenceSpan> spans = splitter.Split(tokens);
    size_t covered = 0;
    size_t expect_begin = 0;
    for (const text::SentenceSpan& s : spans) {
      ASSERT_EQ(s.begin_token, expect_begin);
      ASSERT_GT(s.end_token, s.begin_token);
      covered += s.size();
      expect_begin = s.end_token;
    }
    ASSERT_EQ(covered, tokens.size()) << doc;
  }
}

// --- Spotter vs naive matching ----------------------------------------------------

TEST(SpotterProperty, MatchesNaiveSingleTermScan) {
  common::Rng rng(1003);
  text::Tokenizer tokenizer;
  std::vector<std::string> vocab;
  for (int i = 0; i < 12; ++i) vocab.push_back(RandomWord(rng, 5));

  for (int trial = 0; trial < 100; ++trial) {
    const std::string& needle = rng.Pick(vocab);
    spot::Spotter spotter;
    spotter.AddSynonymSet({1, needle, {}});
    std::string doc = RandomDoc(rng, vocab, 50);
    text::TokenStream tokens = tokenizer.Tokenize(doc);

    size_t naive = 0;
    for (const text::Token& t : tokens) {
      if (common::EqualsIgnoreCase(t.text, needle)) ++naive;
    }
    EXPECT_EQ(spotter.Spot(tokens).size(), naive) << doc;
  }
}

TEST(SpotterProperty, SpotsNeverOverlap) {
  common::Rng rng(1004);
  text::Tokenizer tokenizer;
  std::vector<std::string> vocab{"alpha", "beta", "gamma", "delta"};
  spot::Spotter spotter;
  spotter.AddSynonymSet({1, "alpha", {}});
  spotter.AddSynonymSet({2, "alpha beta", {}});
  spotter.AddSynonymSet({3, "beta gamma delta", {}});
  for (int trial = 0; trial < 100; ++trial) {
    std::string doc = RandomDoc(rng, vocab, 30);
    text::TokenStream tokens = tokenizer.Tokenize(doc);
    std::vector<spot::SubjectSpot> spots = spotter.Spot(tokens);
    for (size_t i = 1; i < spots.size(); ++i) {
      ASSERT_GE(spots[i].begin_token, spots[i - 1].end_token) << doc;
    }
  }
}

// --- Inverted index vs brute force ---------------------------------------------------

class IndexProperty : public ::testing::Test {
 protected:
  IndexProperty() : rng_(1005) {
    for (int i = 0; i < 15; ++i) vocab_.push_back(RandomWord(rng_, 6));
    for (int d = 0; d < 40; ++d) {
      std::string id = "doc-" + std::to_string(d);
      std::string body = RandomDoc(rng_, vocab_, 25);
      bodies_[id] = body;
      platform::Entity e(id, "prop");
      e.SetBody(body);
      index_.IndexEntity(e);
    }
  }

  // Brute-force: docs whose tokenized body contains the term.
  std::vector<std::string> NaiveTerm(const std::string& term) {
    text::Tokenizer tokenizer;
    std::vector<std::string> out;
    for (const auto& [id, body] : bodies_) {
      for (const text::Token& t : tokenizer.Tokenize(body)) {
        if (common::EqualsIgnoreCase(t.text, term)) {
          out.push_back(id);
          break;
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  common::Rng rng_;
  std::vector<std::string> vocab_;
  std::map<std::string, std::string> bodies_;
  platform::InvertedIndex index_;
};

TEST_F(IndexProperty, TermQueryMatchesBruteForce) {
  for (const std::string& term : vocab_) {
    EXPECT_EQ(index_.Term(term), NaiveTerm(term)) << term;
  }
}

TEST_F(IndexProperty, AndIsIntersection) {
  for (int trial = 0; trial < 30; ++trial) {
    const std::string& a = rng_.Pick(vocab_);
    const std::string& b = rng_.Pick(vocab_);
    std::vector<std::string> expected;
    std::vector<std::string> da = NaiveTerm(a), db = NaiveTerm(b);
    std::set_intersection(da.begin(), da.end(), db.begin(), db.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(index_.And({a, b}), expected) << a << " AND " << b;
  }
}

TEST_F(IndexProperty, OrIsUnion) {
  for (int trial = 0; trial < 30; ++trial) {
    const std::string& a = rng_.Pick(vocab_);
    const std::string& b = rng_.Pick(vocab_);
    std::set<std::string> expected;
    for (auto& d : NaiveTerm(a)) expected.insert(d);
    for (auto& d : NaiveTerm(b)) expected.insert(d);
    EXPECT_EQ(index_.Or({a, b}),
              std::vector<std::string>(expected.begin(), expected.end()));
  }
}

TEST_F(IndexProperty, NotIsDifference) {
  for (int trial = 0; trial < 30; ++trial) {
    const std::string& a = rng_.Pick(vocab_);
    const std::string& b = rng_.Pick(vocab_);
    std::vector<std::string> expected;
    std::vector<std::string> da = NaiveTerm(a), db = NaiveTerm(b);
    std::set_difference(da.begin(), da.end(), db.begin(), db.end(),
                        std::back_inserter(expected));
    EXPECT_EQ(index_.Not(a, b), expected);
  }
}

TEST_F(IndexProperty, PhraseMatchesSubstringScan) {
  text::Tokenizer tokenizer;
  for (int trial = 0; trial < 30; ++trial) {
    const std::string& a = rng_.Pick(vocab_);
    const std::string& b = rng_.Pick(vocab_);
    std::vector<std::string> expected;
    for (const auto& [id, body] : bodies_) {
      text::TokenStream tokens = tokenizer.Tokenize(body);
      for (size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (common::EqualsIgnoreCase(tokens[i].text, a) &&
            common::EqualsIgnoreCase(tokens[i + 1].text, b)) {
          expected.push_back(id);
          break;
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(index_.Phrase({a, b}), expected) << a << " " << b;
  }
}

TEST_F(IndexProperty, PhraseNeverCrossesPunctuation) {
  // Positions are token positions including punctuation gaps, so a phrase
  // split by '.' must not match... punctuation tokens are skipped during
  // indexing but positions still advance per word; adjacency is preserved
  // only for genuinely adjacent word tokens within the stream.
  platform::InvertedIndex index;
  platform::Entity e("p", "t");
  e.SetBody("alpha. beta");
  index.IndexEntity(e);
  // "alpha" and "beta" are adjacent word tokens in token-position space
  // only if the '.' does not intervene; the tokenizer emits '.' as a
  // token, so positions differ by 2 and the phrase must miss.
  EXPECT_TRUE(index.Phrase({"alpha", "beta"}).empty());
}

// --- Inverted index under re-indexing ------------------------------------------------

// A random whole version of entity `id`: a body over `vocab` (now and then
// empty or upper-cased), concept tokens that may repeat or equal a body
// word, and numeric, date and non-numeric fields, each present or not.
platform::Entity RandomVersion(common::Rng& rng, const std::string& id,
                               const std::vector<std::string>& vocab) {
  static const std::vector<std::string> kDates = {
      "2004-03", "2004-06-15", "2005-12-31T08:00", "2005-xx", "n/a"};
  platform::Entity e(id, "prop");
  std::string body = RandomDoc(rng, vocab, rng.Index(30));
  if (rng.Bernoulli(0.2)) body = common::ToUpper(body);
  e.SetBody(body);
  const size_t concepts = rng.Index(4);
  for (size_t c = 0; c < concepts; ++c) {
    e.AddConceptToken(rng.Bernoulli(0.3) ? rng.Pick(vocab)
                                         : "sent/" + rng.Pick(vocab));
  }
  if (rng.Bernoulli(0.6)) {
    e.SetField("score", std::to_string(rng.Uniform(0, 100)));
  }
  if (rng.Bernoulli(0.5)) e.SetField("date", rng.Pick(kDates));
  if (rng.Bernoulli(0.2)) e.SetField("url", "http://x/" + rng.Pick(vocab));
  return e;
}

// Every answer `got` gives over `terms` and `ids` equals `want`'s, and so
// do the two indexes' Save bytes (written under `dir`).
void ExpectSameIndex(const platform::InvertedIndex& want,
                     const platform::InvertedIndex& got,
                     const std::vector<std::string>& terms,
                     const std::vector<std::string>& ids,
                     const std::string& dir, const std::string& label) {
  for (const std::string& term : terms) {
    EXPECT_EQ(got.Term(term), want.Term(term)) << label << " Term " << term;
    EXPECT_EQ(got.VocabularyWithPrefix(term.substr(0, 1)),
              want.VocabularyWithPrefix(term.substr(0, 1)))
        << label << " VocabularyWithPrefix " << term.substr(0, 1);
    EXPECT_EQ(got.Prefix(term.substr(0, 2)), want.Prefix(term.substr(0, 2)))
        << label << " Prefix " << term.substr(0, 2);
    for (const std::string& id : ids) {
      EXPECT_EQ(got.TermFrequency(term, id), want.TermFrequency(term, id))
          << label << " TermFrequency " << term << " " << id;
    }
  }
  for (size_t i = 0; i + 1 < terms.size(); ++i) {
    const std::vector<std::string> phrase = {terms[i], terms[i + 1]};
    EXPECT_EQ(got.Phrase(phrase), want.Phrase(phrase))
        << label << " Phrase " << terms[i] << " " << terms[i + 1];
  }
  for (const auto& [field, lo, hi] :
       std::vector<std::tuple<std::string, double, double>>{
           {"score", 0, 50},
           {"score", 25, 100},
           {"date", 20040101, 20041231},
           {"date", 0, 1e9},
           {"url", 0, 1e18}}) {
    EXPECT_EQ(got.Range(field, lo, hi), want.Range(field, lo, hi))
        << label << " Range " << field << " " << lo << " " << hi;
  }
  EXPECT_EQ(got.document_count(), want.document_count()) << label;
  EXPECT_EQ(got.vocabulary_size(), want.vocabulary_size()) << label;
  EXPECT_EQ(got.VocabularyWithPrefix(""), want.VocabularyWithPrefix(""))
      << label;
  ASSERT_TRUE(want.Save(dir + "/want.idx").ok());
  ASSERT_TRUE(got.Save(dir + "/got.idx").ok());
  EXPECT_EQ(common::ReadFileToString(dir + "/got.idx").value(),
            common::ReadFileToString(dir + "/want.idx").value())
      << label << " Save bytes";
}

// Random IndexEntity sequences over a small id pool re-index every doc
// many times, so the delta retires old versions and purges them again and
// again. A never-frozen index and a segmented twin that freezes (and
// compacts) at random points must both answer like a fresh index of each
// id's last version.
TEST(IndexReindexProperty, RetiredVersionsNeverShowThroughAnyQuery) {
  common::Rng rng(1010);
  std::vector<std::string> vocab;
  for (int i = 0; i < 12; ++i) vocab.push_back(RandomWord(rng, 5));
  std::vector<std::string> ids;
  for (int i = 0; i < 10; ++i) ids.push_back("doc-" + std::to_string(i));
  std::vector<std::string> terms = vocab;
  for (const std::string& word : vocab) terms.push_back("sent/" + word);
  terms.push_back("missing");

  const std::string dir = ::testing::TempDir() + "wf_prop_reindex";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/runs");
  platform::InvertedIndex plain;
  platform::InvertedIndex tiered;
  ASSERT_TRUE(tiered
                  .EnableSegments(dir + "/runs", "idx", /*injector=*/nullptr,
                                  /*compaction_fanout=*/2)
                  .ok());
  std::map<std::string, platform::Entity> latest;
  for (int step = 1; step <= 400; ++step) {
    const std::string& id = rng.Pick(ids);
    auto it = latest.find(id);
    // Now and then the same version again.
    platform::Entity e = it != latest.end() && rng.Bernoulli(0.2)
                             ? it->second
                             : RandomVersion(rng, id, vocab);
    plain.IndexEntity(e);
    tiered.IndexEntity(e);
    latest.insert_or_assign(id, std::move(e));
    if (rng.Bernoulli(0.05)) {
      ASSERT_TRUE(tiered.Freeze().ok());
    }
    if (step % 40 != 0) continue;
    platform::InvertedIndex fresh;
    for (const auto& [doc_id, version] : latest) fresh.IndexEntity(version);
    const std::string label = "step " + std::to_string(step);
    ExpectSameIndex(fresh, plain, terms, ids, dir, label + " plain");
    ExpectSameIndex(fresh, tiered, terms, ids, dir, label + " tiered");
  }
  std::filesystem::remove_all(dir);
}

// --- Entity record codec ------------------------------------------------------

// Up to `max_len` of the bytes a record must carry through: newline, tab,
// backslash, '=', NUL and a letter. Empty one time in max_len + 1.
std::string HostileString(common::Rng& rng, size_t max_len) {
  static constexpr char kBytes[] = {'\n', '\t', '\\', '=', '\0', 'x'};
  std::string out;
  const size_t len = static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(max_len)));
  for (size_t i = 0; i < len; ++i) out += kBytes[rng.Index(6)];
  return out;
}

TEST(EntityProperty, RecordRoundTripsRandomEntities) {
  common::Rng rng(1009);
  for (int trial = 0; trial < 300; ++trial) {
    platform::Entity e(HostileString(rng, 12), HostileString(rng, 6));
    // One entity in five has no body field at all.
    if (!rng.Bernoulli(0.2)) e.SetBody(HostileString(rng, 60));
    const size_t fields = static_cast<size_t>(rng.Uniform(0, 3));
    for (size_t f = 0; f < fields; ++f) {
      e.SetField(HostileString(rng, 6), HostileString(rng, 20));
    }
    const std::string& body = e.body();
    const size_t layers = static_cast<size_t>(rng.Uniform(0, 3));
    for (size_t l = 0; l < layers; ++l) {
      const std::string layer = HostileString(rng, 6);
      const size_t spans = static_cast<size_t>(rng.Uniform(0, 4));
      for (size_t k = 0; k < spans; ++k) {
        platform::AnnotationSpan span;
        // Some spans run past the body's end, or end before they begin.
        span.begin = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(body.size()) + 8));
        span.end = rng.Bernoulli(0.1)
                       ? span.begin - std::min<size_t>(span.begin, 3)
                       : span.begin + static_cast<size_t>(rng.Uniform(0, 20));
        const size_t attrs = static_cast<size_t>(rng.Uniform(0, 3));
        for (size_t a = 0; a < attrs; ++a) {
          const bool in_body = span.end <= body.size() && span.begin <= span.end;
          span.attrs[HostileString(rng, 6)] =
              in_body && rng.Bernoulli(0.5)
                  ? body.substr(span.begin, span.end - span.begin)
                  : HostileString(rng, 12);
        }
        e.AddAnnotation(layer, std::move(span));
      }
    }
    const size_t tokens = static_cast<size_t>(rng.Uniform(0, 3));
    for (size_t t = 0; t < tokens; ++t) {
      e.AddConceptToken(HostileString(rng, 10));
    }

    auto restored = platform::Entity::DecodeRecord(e.EncodeRecord());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, e) << "trial " << trial;
  }
}

TEST(EntityProperty, RecordRoundTripsEmptyStringsEverywhere) {
  for (bool with_body : {false, true}) {
    platform::Entity e("", "");
    if (with_body) e.SetBody("");
    e.SetField("", "");
    platform::AnnotationSpan span;
    span.attrs[""] = "";
    e.AddAnnotation("", span);
    e.AddConceptToken("");
    auto restored = platform::Entity::DecodeRecord(e.EncodeRecord());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, e);
  }
}

// The first page of a seeded web crawl that the sentiment miner annotates,
// mined as a node mines it.
platform::Entity MinedWebPage() {
  const auto lexicon = lexicon::SentimentLexicon::Embedded();
  const auto patterns = lexicon::PatternDatabase::Embedded();
  platform::AdHocSentimentMinerPlugin sentiment(&lexicon, &patterns);
  platform::SentenceBoundaryMiner sentences;
  platform::TokenStatsMiner token_stats;
  for (const corpus::GeneratedDoc& d : corpus::GenerateWebDocs(
           corpus::PetroleumDomain(), 20, 77, corpus::WebGenOptions{})) {
    platform::Entity e(d.id, "crawl");
    e.SetBody(d.body);
    std::unique_ptr<core::LinguisticAnalysis> analysis =
        core::AnalyzeDocument(d.body);
    EXPECT_TRUE(sentences.Process(e, {*analysis}).ok());
    EXPECT_TRUE(sentiment.Process(e, {*analysis}).ok());
    EXPECT_TRUE(token_stats.Process(e, {*analysis}).ok());
    if (e.GetAnnotations("sentiment") != nullptr) return e;
  }
  ADD_FAILURE() << "no page in the crawl has a sentiment span";
  return {};
}

TEST(EntityProperty, RecordBacksReferencesAndRejectsEveryStrictPrefix) {
  const platform::Entity page = MinedWebPage();
  const std::vector<platform::AnnotationSpan>* mentions =
      page.GetAnnotations("sentiment");
  ASSERT_NE(mentions, nullptr);
  const std::string record = page.EncodeRecord();
  auto restored = platform::Entity::DecodeRecord(record);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, page);
  // Each mention's sentence attribute is its span's body text, so the
  // record refers to the body instead of copying it: the same page with
  // every sentence changed by one byte encodes each one in full.
  platform::Entity copied(page.id(), page.source());
  for (const auto& [name, value] : page.fields()) copied.SetField(name, value);
  size_t sentence_bytes = 0;
  for (const auto& [layer, spans] : page.annotations()) {
    for (platform::AnnotationSpan span : spans) {
      auto sentence = span.attrs.find("sentence");
      if (layer == "sentiment" && sentence != span.attrs.end()) {
        ASSERT_EQ(sentence->second,
                  page.body().substr(span.begin, span.end - span.begin));
        sentence_bytes += sentence->second.size();
        sentence->second += '!';
      }
      copied.AddAnnotation(layer, std::move(span));
    }
  }
  for (const std::string& token : page.concept_tokens()) {
    copied.AddConceptToken(token);
  }
  ASSERT_GT(sentence_bytes, 0u);
  EXPECT_GT(copied.EncodeRecord().size(), record.size() + sentence_bytes);

  for (size_t n = 0; n < record.size(); ++n) {
    EXPECT_EQ(platform::Entity::DecodeRecord(record.substr(0, n))
                  .status()
                  .code(),
              common::StatusCode::kCorruption)
        << "prefix of " << n << " of " << record.size() << " bytes";
  }
  // The canonical text form is not a record.
  EXPECT_EQ(platform::Entity::DecodeRecord(page.Serialize()).status().code(),
            common::StatusCode::kCorruption);
}

TEST(EntityProperty, RecordRejectsABackReferencePastTheBody) {
  platform::Entity e("id", "src");
  e.SetBody("short body");
  platform::AnnotationSpan span{.begin = 6, .end = 10, .attrs = {}};
  span.attrs["word"] = "body";
  e.AddAnnotation("words", span);
  std::string record = e.EncodeRecord();
  ASSERT_TRUE(platform::Entity::DecodeRecord(record).ok());
  // Shorten the body by one byte in place: its length byte and its last
  // character. The span's reference now ends past it.
  const std::string field = std::string("\x0A") + "short body";
  const size_t at = record.find(field);
  ASSERT_NE(at, std::string::npos);
  record.replace(at, field.size(), std::string("\x09") + "short bod");
  EXPECT_EQ(platform::Entity::DecodeRecord(record).status().code(),
            common::StatusCode::kCorruption);
}

// --- Vinci wire format fuzz ---------------------------------------------------------------

TEST(VinciProperty, WireRoundTripsRandomPayloads) {
  common::Rng rng(1007);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::pair<std::string, std::string>> pairs;
    size_t n = static_cast<size_t>(rng.Uniform(0, 6));
    for (size_t i = 0; i < n; ++i) {
      std::string value;
      size_t len = static_cast<size_t>(rng.Uniform(0, 20));
      for (size_t k = 0; k < len; ++k) {
        int c = static_cast<int>(rng.Uniform(0, 5));
        value += c == 0 ? '\n' : c == 1 ? '\\' : c == 2 ? '=' : 'y';
      }
      pairs.emplace_back(RandomWord(rng), value);
    }
    EXPECT_EQ(platform::DecodeMessage(platform::EncodeMessage(pairs)),
              pairs);
  }
}

TEST(VinciProperty, WireRoundTripsHostileKeys) {
  // Keys get the same adversarial treatment as values: separators (`=`),
  // record terminators (`\n`), escape characters, and the *literal*
  // two-character sequence "\n" (backslash then 'n'), which must not be
  // confused with a real newline on the way back.
  common::Rng rng(1008);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::string, std::string>> pairs;
    size_t n = static_cast<size_t>(rng.Uniform(0, 6));
    for (size_t i = 0; i < n; ++i) {
      std::string key;
      size_t klen = static_cast<size_t>(rng.Uniform(0, 12));
      for (size_t k = 0; k < klen; ++k) {
        switch (static_cast<int>(rng.Uniform(0, 6))) {
          case 0: key += '='; break;
          case 1: key += '\n'; break;
          case 2: key += '\\'; break;
          case 3: key += "\\n"; break;  // literal backslash-n
          default: key += 'k'; break;
        }
      }
      std::string value;
      size_t vlen = static_cast<size_t>(rng.Uniform(0, 12));
      for (size_t k = 0; k < vlen; ++k) {
        switch (static_cast<int>(rng.Uniform(0, 6))) {
          case 0: value += '='; break;
          case 1: value += '\n'; break;
          case 2: value += '\\'; break;
          case 3: value += "\\n"; break;
          default: value += 'v'; break;
        }
      }
      pairs.emplace_back(std::move(key), std::move(value));
    }
    EXPECT_EQ(platform::DecodeMessage(platform::EncodeMessage(pairs)),
              pairs);
  }
}

}  // namespace
}  // namespace wf
