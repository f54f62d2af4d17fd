// Parameterized agreement sweep: for every subject in every domain, the
// analyzer must recover the polarity of generated class-A (extractable)
// sentences at high rate, in both polarities — the contract between the
// corpus generator and the miner that every headline number rests on.

#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <thread>

#include "common/rng.h"
#include "corpus/domain.h"
#include "corpus/sentence_templates.h"
#include "platform/data_store.h"
#include "platform/indexer.h"
#include "tests/test_util.h"

namespace wf {
namespace {

using corpus::DomainVocab;
using corpus::GenSentence;
using corpus::Register;
using corpus::SentenceFactory;
using lexicon::Polarity;

struct SweepCase {
  const DomainVocab* domain;
  Register reg;
  const char* label;
};

// gtest prints the parameter into every listed test name. Without this it
// dumps the struct's raw bytes, heap pointer included, so the names changed
// from one build to the next.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.label; }

class AgreementSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static wf::testing::Pipeline& Shared() {
    static auto* kPipeline = new wf::testing::Pipeline();
    return *kPipeline;
  }
};

TEST_P(AgreementSweep, ExtractableSentencesRecovered) {
  const SweepCase& param = GetParam();
  SentenceFactory factory(param.domain, &corpus::SharedWordPools(),
                          param.reg);
  common::Rng rng(2718);

  size_t total = 0, correct = 0;
  auto sweep_subject = [&](const std::string& subject) {
    for (Polarity target : {Polarity::kPositive, Polarity::kNegative}) {
      for (int trial = 0; trial < 6; ++trial) {
        GenSentence s = factory.PolarExtractable(rng, subject, target);
        Polarity got = Shared().Analyze(s.text, subject);
        ++total;
        if (got == target) ++correct;
      }
    }
  };
  for (const std::string& feature : param.domain->features) {
    sweep_subject(feature);
  }
  for (const corpus::Product& p : param.domain->products) {
    sweep_subject(p.name);
  }
  double rate = static_cast<double>(correct) / static_cast<double>(total);
  EXPECT_GT(rate, 0.9) << param.label << ": " << correct << "/" << total;
}

TEST_P(AgreementSweep, NeutralSentencesStayNeutralMostly) {
  const SweepCase& param = GetParam();
  SentenceFactory factory(param.domain, &corpus::SharedWordPools(),
                          param.reg);
  common::Rng rng(3141);

  size_t total = 0, fired = 0;
  for (const std::string& feature : param.domain->features) {
    for (int trial = 0; trial < 8; ++trial) {
      GenSentence s =
          factory.Neutral(rng, feature, /*with_distractor=*/trial % 2 == 0);
      Polarity got = Shared().Analyze(s.text, feature);
      ++total;
      if (got != Polarity::kNeutral) ++fired;
    }
  }
  // The miner may fire on a small fraction of neutral mentions (the paper's
  // precision is not 100% either), but must stay well under 10%.
  EXPECT_LT(static_cast<double>(fired) / static_cast<double>(total), 0.1)
      << param.label << ": " << fired << "/" << total;
}

INSTANTIATE_TEST_SUITE_P(
    Domains, AgreementSweep,
    ::testing::Values(
        SweepCase{&corpus::CameraDomain(), Register::kReview, "camera"},
        SweepCase{&corpus::MusicDomain(), Register::kReview, "music"},
        SweepCase{&corpus::PetroleumDomain(), Register::kWeb, "petroleum"},
        SweepCase{&corpus::PharmaDomain(), Register::kWeb, "pharma"}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.label;
    });

// --- Concurrency smoke tests -------------------------------------------------------

TEST(ConcurrencyTest, DataStoreParallelReadersAndWriters) {
  platform::DataStore store;
  std::atomic<bool> stop{false};
  std::atomic<size_t> errors{0};

  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      platform::Entity e("w-" + std::to_string(i), "t");
      e.SetBody("body " + std::to_string(i));
      if (!store.Upsert(std::move(e)).ok()) ++errors;
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop) {
        size_t n = store.size();
        auto ids = store.Ids();
        if (ids.size() < n && ids.size() + 50 < n) ++errors;
        store.ForEach([](const platform::Entity&) {});
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(store.size(), 500u);
  EXPECT_EQ(errors, 0u);
}

TEST(ConcurrencyTest, IndexParallelQueriesDuringIndexing) {
  platform::InvertedIndex index;
  std::atomic<bool> stop{false};
  std::thread indexer([&] {
    for (int i = 0; i < 300; ++i) {
      platform::Entity e("d-" + std::to_string(i), "t");
      e.SetBody("the battery works and the zoom shines number " +
                std::to_string(i));
      index.IndexEntity(e);
    }
    stop = true;
  });
  std::vector<std::thread> queriers;
  for (int q = 0; q < 3; ++q) {
    queriers.emplace_back([&] {
      while (!stop) {
        auto a = index.Term("battery");
        auto b = index.Phrase({"zoom", "shines"});
        auto c = index.And({"battery", "zoom"});
        (void)a;
        (void)b;
        (void)c;
      }
    });
  }
  indexer.join();
  for (auto& t : queriers) t.join();
  EXPECT_EQ(index.document_count(), 300u);
  EXPECT_EQ(index.Term("battery").size(), 300u);
}

}  // namespace
}  // namespace wf
