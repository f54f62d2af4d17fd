// wfsm — command-line front end for the WebFountain sentiment miner.
//
//   wfsm analyze --subject <term> [text ...]     sentiment about a subject
//   wfsm mine --subjects a,b,c [--neutral]       mine a document (stdin)
//   wfsm adhoc                                   ad-hoc mining (stdin)
//   wfsm features --plus FILE --minus FILE       feature-term extraction
//                                                (one document per line)
//   wfsm validate --lexicon FILE | --patterns FILE
//   wfsm help
//
// Text input comes from the remaining arguments when present, otherwise
// from stdin.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/miner.h"
#include "feature/feature_extractor.h"
#include "lexicon/pattern_db.h"
#include "lexicon/sentiment_lexicon.h"

namespace {

using namespace wf;

std::string ReadAllStdin() {
  std::ostringstream buf;
  buf << std::cin.rdbuf();
  return buf.str();
}

// Gathered text: joined trailing args, or stdin when none.
std::string GatherText(const std::vector<std::string>& args) {
  if (args.empty()) return ReadAllStdin();
  std::vector<std::string> copy = args;
  return common::Join(copy, " ");
}

// Pulls "--flag value" out of an argument list; empty when absent.
std::string TakeFlag(std::vector<std::string>& args,
                     const std::string& flag) {
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      return value;
    }
  }
  return "";
}

bool TakeSwitch(std::vector<std::string>& args, const std::string& flag) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag) {
      args.erase(args.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

const char* PolaritySymbol(lexicon::Polarity p) {
  switch (p) {
    case lexicon::Polarity::kPositive:
      return "+";
    case lexicon::Polarity::kNegative:
      return "-";
    case lexicon::Polarity::kNeutral:
      return "0";
  }
  return "?";
}

int CmdAnalyze(std::vector<std::string> args) {
  std::string subject = TakeFlag(args, "--subject");
  if (subject.empty()) {
    std::fprintf(stderr, "analyze: --subject is required\n");
    return 2;
  }
  std::string text = GatherText(args);

  lexicon::SentimentLexicon lexicon = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  core::SentimentMiner miner(&lexicon, &patterns);
  miner.AddSubject(spot::SynonymSet{0, subject, {}});
  core::SentimentStore store;
  miner.ProcessDocument("stdin", *core::AnalyzeDocument(text), &store);

  if (store.size() == 0) {
    std::printf("no occurrences of \"%s\"\n", subject.c_str());
    return 1;
  }
  for (const core::SentimentMention& m : store.mentions()) {
    std::printf("[%s] %s", PolaritySymbol(m.polarity),
                m.sentence_text.c_str());
    if (!m.pattern.empty()) std::printf("   (pattern: %s)", m.pattern.c_str());
    std::printf("\n");
  }
  return 0;
}

int CmdMine(std::vector<std::string> args) {
  std::string subjects = TakeFlag(args, "--subjects");
  bool neutral = TakeSwitch(args, "--neutral");
  if (subjects.empty()) {
    std::fprintf(stderr, "mine: --subjects a,b,c is required\n");
    return 2;
  }
  std::string text = GatherText(args);

  lexicon::SentimentLexicon lexicon = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  core::SentimentMiner::Config config;
  config.record_neutral = neutral;
  core::SentimentMiner miner(&lexicon, &patterns, config);
  int id = 0;
  for (const std::string& s : common::Split(subjects, ",")) {
    miner.AddSubject(spot::SynonymSet{id++, s, {}});
  }
  core::SentimentStore store;
  miner.ProcessDocument("stdin", *core::AnalyzeDocument(text), &store);
  for (const core::SentimentMention& m : store.mentions()) {
    std::printf("%s\t%s\t%s\n", m.subject.c_str(),
                PolaritySymbol(m.polarity), m.sentence_text.c_str());
  }
  std::fprintf(stderr, "%zu mention(s)\n", store.size());
  return 0;
}

int CmdAdhoc(std::vector<std::string> args) {
  std::string text = GatherText(args);
  lexicon::SentimentLexicon lexicon = lexicon::SentimentLexicon::Embedded();
  lexicon::PatternDatabase patterns = lexicon::PatternDatabase::Embedded();
  core::AdHocSentimentMiner miner(&lexicon, &patterns);
  core::SentimentStore store;
  miner.ProcessDocument("stdin", *core::AnalyzeDocument(text), &store);
  for (const core::SentimentMention& m : store.mentions()) {
    std::printf("%s\t%s\t%s\n", m.subject.c_str(),
                PolaritySymbol(m.polarity), m.sentence_text.c_str());
  }
  std::fprintf(stderr, "%zu sentiment-bearing entity mention(s)\n",
               store.size());
  return 0;
}

int CmdFeatures(std::vector<std::string> args) {
  std::string plus_path = TakeFlag(args, "--plus");
  std::string minus_path = TakeFlag(args, "--minus");
  std::string top = TakeFlag(args, "--top");
  if (plus_path.empty() || minus_path.empty()) {
    std::fprintf(stderr,
                 "features: --plus FILE and --minus FILE are required "
                 "(one document per line)\n");
    return 2;
  }
  feature::FeatureExtractor::Options options;
  uint64_t top_n = options.top_n;
  if (!top.empty() && !common::ParseUint64(top, &top_n)) {
    std::fprintf(stderr,
                 "features: --top wants a non-negative integer, got '%s'\n",
                 top.c_str());
    return 2;
  }
  options.top_n = top_n;
  feature::FeatureExtractor extractor(options);

  auto feed = [&extractor](const std::string& path, bool on_topic) -> bool {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) extractor.AddDocument(line, on_topic);
    }
    return true;
  };
  if (!feed(plus_path, true) || !feed(minus_path, false)) return 1;

  for (const feature::FeatureTerm& t : extractor.Extract()) {
    std::printf("%10.2f  %4llu/%-4llu  %s\n", t.score,
                static_cast<unsigned long long>(t.df_on_topic),
                static_cast<unsigned long long>(t.df_off_topic),
                t.phrase.c_str());
  }
  return 0;
}

int CmdValidate(std::vector<std::string> args) {
  std::string lexicon_path = TakeFlag(args, "--lexicon");
  std::string patterns_path = TakeFlag(args, "--patterns");
  if (lexicon_path.empty() && patterns_path.empty()) {
    std::fprintf(stderr,
                 "validate: --lexicon FILE or --patterns FILE required\n");
    return 2;
  }
  if (!lexicon_path.empty()) {
    lexicon::SentimentLexicon lex;
    common::Status s = lex.LoadFile(lexicon_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("lexicon OK: %zu entries\n", lex.size());
  }
  if (!patterns_path.empty()) {
    lexicon::PatternDatabase db;
    common::Status s = db.LoadFile(patterns_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("patterns OK: %zu patterns over %zu predicates\n",
                db.size(), db.predicate_count());
  }
  return 0;
}

int CmdHelp() {
  std::printf(
      "wfsm — WebFountain sentiment miner\n\n"
      "  wfsm analyze --subject TERM [text ...]   sentiment about TERM\n"
      "  wfsm mine --subjects a,b,c [--neutral]   mine document (stdin)\n"
      "  wfsm adhoc [text ...]                    ad-hoc entity mining\n"
      "  wfsm features --plus F --minus F [--top N]\n"
      "                                           feature-term extraction\n"
      "  wfsm validate --lexicon F | --patterns F resource file check\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return CmdHelp();
  std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "analyze") return CmdAnalyze(std::move(args));
  if (cmd == "mine") return CmdMine(std::move(args));
  if (cmd == "adhoc") return CmdAdhoc(std::move(args));
  if (cmd == "features") return CmdFeatures(std::move(args));
  if (cmd == "validate") return CmdValidate(std::move(args));
  return CmdHelp();
}
