// Storage engine tests (DESIGN.md §13): varint coding, the LSM tree's
// tiered reads and compaction, corruption rejection at every byte and
// crash-at-every-op fuzz over the flush and compaction manifest swaps (for
// the store and the index), frozen-index/ephemeral query equivalence,
// goldens over the segment files themselves, and the cluster-level
// crash → restart acceptance check with byte-identical answers.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "platform/cluster.h"
#include "platform/data_store.h"
#include "platform/entity.h"
#include "platform/indexer.h"
#include "platform/wal.h"
#include "obs/metrics.h"
#include "store/bloom.h"
#include "store/index_segment.h"
#include "store/lsm.h"
#include "store/manifest.h"
#include "store/segment.h"
#include "store/segment_stack.h"
#include "store/varint.h"

namespace wf {
namespace {

using ::wf::common::StorageFaultInjector;
using ::wf::platform::Cluster;
using ::wf::platform::DataStore;
using ::wf::platform::Entity;
using ::wf::platform::InvertedIndex;
using ::wf::store::LsmOptions;
using ::wf::store::LsmTree;

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_("/tmp/wf_storage_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  auto content = common::ReadFileToString(path);
  return content.ok() ? content.value() : std::string();
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  // Raw stream on purpose: these tests simulate corruption themselves.
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

// Every live (key, value) pair, via the merged sorted sweep.
std::map<std::string, std::string> Contents(const LsmTree& tree) {
  std::map<std::string, std::string> out;
  EXPECT_TRUE(tree.ForEachSorted([&out](const std::string& k,
                                        const std::string& v) {
                    out[k] = v;
                    return common::Status::Ok();
                  })
                  .ok());
  return out;
}

// Files in `dir`, by name.
std::set<std::string> DirFiles(const std::string& dir) {
  std::set<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    out.insert(entry.path().filename().string());
  }
  return out;
}

// --- varint -----------------------------------------------------------------

TEST(VarintTest, RoundTripsBoundaryValues) {
  const std::vector<uint64_t> values = {
      0,   1,   127, 128,  129,        16383,      16384,
      255, 300, 1u << 21,  (1u << 28) - 1,         1ull << 35,
      ~0ull};
  std::string buf;
  for (uint64_t v : values) store::PutVarint(v, &buf);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(store::GetVarint(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
  // A truncated buffer decodes cleanly up to the cut, then refuses.
  std::string torn = buf.substr(0, buf.size() - 1);
  pos = 0;
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    uint64_t got = 0;
    ASSERT_TRUE(store::GetVarint(torn, &pos, &got));
  }
  uint64_t got = 0;
  EXPECT_FALSE(store::GetVarint(torn, &pos, &got));
}

// --- BloomFilter ------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegativesAndFewFalsePositives) {
  store::BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add("present-" + std::to_string(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain("present-" + std::to_string(i)));
  }
  // ~10 bits/key with 6 probes targets <1% false positives; allow slack.
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("absent-" + std::to_string(i))) ++false_positives;
  }
  EXPECT_LT(false_positives, 300);
}

TEST(BloomFilterTest, EmptyFilterAnswersDefinitelyAbsent) {
  store::BloomFilter unsized;
  EXPECT_TRUE(unsized.empty());
  EXPECT_FALSE(unsized.MayContain("anything"));
  store::BloomFilter sized(0);  // zero expected keys still gets a word
  EXPECT_FALSE(sized.MayContain("anything"));
}

TEST(SegmentBloomTest, WriterAndReopenedReaderBuildIdenticalFilters) {
  ScopedTempDir dir("bloom");
  std::vector<std::string> keys, values;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("key-" + std::to_string(1000 + i));
    values.push_back("value-" + std::to_string(i));
  }
  std::vector<store::SegmentRecord> records;
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back({keys[i], values[i], false});
  }
  store::BloomFilter written;
  ASSERT_TRUE(store::WriteSegmentFile(dir.File("b.wfseg"), records,
                                      /*injector=*/nullptr, &written)
                  .ok());
  auto reader = store::SegmentReader::Open(dir.File("b.wfseg"));
  ASSERT_TRUE(reader.ok());
  // Derived state must be deterministic: write-time and open-time filters
  // are bit-identical, and no stored key is ever ruled out.
  EXPECT_TRUE(written == reader.value()->bloom());
  for (const std::string& key : keys) {
    EXPECT_TRUE(reader.value()->MayContain(key));
    EXPECT_NE(reader.value()->Find(key), nullptr);
  }
}

TEST(LsmTreeTest, BloomSkipsSegmentProbesAndExportsCounters) {
  ScopedTempDir dir("bloom_lsm");
  obs::MetricsRegistry metrics;
  LsmOptions opts;
  opts.compaction_fanout = 0;  // keep every flushed segment
  LsmTree tree;
  tree.AttachMetrics(&metrics, "store/test");
  ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  // Three disjoint generations -> three segments; any point read probes
  // segments that mostly cannot hold the key.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(tree.Put(common::StrFormat("g%d-%d", gen, i), "v").ok());
    }
    ASSERT_TRUE(tree.Flush().ok());
  }
  ASSERT_EQ(tree.segment_count(), 3u);
  obs::Counter* hits = metrics.GetCounter("store/test/bloom_hits_total");
  obs::Counter* misses = metrics.GetCounter("store/test/bloom_misses_total");
  const uint64_t hits_before = hits->value();
  // Reads still answer correctly through the filter...
  for (int gen = 0; gen < 3; ++gen) {
    EXPECT_EQ(tree.Get("g" + std::to_string(gen) + "-25").value(), "v");
  }
  EXPECT_GT(misses->value(), 0u);
  // ...and absent-key reads are dominated by filter skips: 200 probes
  // over 3 segments would be 600 binary searches without the filter.
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(tree.Contains("nowhere-" + std::to_string(i)));
  }
  EXPECT_GT(hits->value() - hits_before, 500u);
}

// --- LsmTree ----------------------------------------------------------------

TEST(LsmTreeTest, EphemeralBasics) {
  LsmTree tree;
  EXPECT_FALSE(tree.segmented());
  ASSERT_TRUE(tree.Insert("a", "1").ok());
  EXPECT_EQ(tree.Insert("a", "x").code(), common::StatusCode::kAlreadyExists);
  ASSERT_TRUE(tree.Put("b", "2").ok());
  ASSERT_TRUE(tree.Put("b", "2b").ok());  // upsert replaces
  EXPECT_EQ(tree.Get("b").value(), "2b");
  EXPECT_TRUE(tree.Contains("a"));
  EXPECT_EQ(tree.size(), 2u);
  ASSERT_TRUE(tree.Update("a", [](std::string* v) {
                    *v += "!";
                    return common::Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(tree.Get("a").value(), "1!");
  ASSERT_TRUE(tree.Delete("a").ok());
  EXPECT_EQ(tree.Delete("a").code(), common::StatusCode::kNotFound);
  EXPECT_EQ(tree.Get("a").status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(tree.size(), 1u);
  // Segment-mode operations refuse in ephemeral mode.
  EXPECT_EQ(tree.Flush().code(), common::StatusCode::kFailedPrecondition);
}

TEST(LsmTreeTest, SegmentedContentsSurviveReopen) {
  ScopedTempDir dir("reopen");
  LsmOptions opts;
  {
    LsmTree tree;
    ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
    EXPECT_TRUE(tree.segmented());
    ASSERT_TRUE(tree.Put("a", "1").ok());
    ASSERT_TRUE(tree.Put("b", "2").ok());
    ASSERT_TRUE(tree.Flush().ok());
    // A second generation: updates land over the frozen one.
    ASSERT_TRUE(tree.Put("b", "2b").ok());
    ASSERT_TRUE(tree.Put("c", "3").ok());
    ASSERT_TRUE(tree.Flush().ok());
    EXPECT_EQ(tree.flushes(), 2u);
  }
  LsmTree re;
  ASSERT_TRUE(re.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  EXPECT_EQ(re.size(), 3u);
  EXPECT_EQ(re.Get("a").value(), "1");
  EXPECT_EQ(re.Get("b").value(), "2b");  // newest tier wins
  EXPECT_EQ(re.Get("c").value(), "3");
}

TEST(LsmTreeTest, TombstoneShadowsOlderSegmentsAcrossReopen) {
  ScopedTempDir dir("tombstone");
  LsmOptions opts;
  {
    LsmTree tree;
    ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
    ASSERT_TRUE(tree.Put("doomed", "v").ok());
    ASSERT_TRUE(tree.Put("keep", "v").ok());
    ASSERT_TRUE(tree.Flush().ok());
    ASSERT_TRUE(tree.Delete("doomed").ok());
    ASSERT_TRUE(tree.Flush().ok());  // the tombstone freezes into a segment
    EXPECT_FALSE(tree.Contains("doomed"));
  }
  LsmTree re;
  ASSERT_TRUE(re.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  // The tombstone in the newer segment still shadows the older record.
  EXPECT_FALSE(re.Contains("doomed"));
  EXPECT_EQ(re.Get("doomed").status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(re.size(), 1u);
  // Deleting again is NotFound, not a resurrection.
  EXPECT_EQ(re.Delete("doomed").code(), common::StatusCode::kNotFound);
}

TEST(LsmTreeTest, MemtableCeilingBoundsMemoryAndAutoFlushes) {
  ScopedTempDir dir("ceiling");
  LsmOptions opts;
  opts.memtable_ceiling_bytes = 2048;
  LsmTree tree;
  ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  const std::string value(64, 'x');
  uint64_t high_water = 0;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Put("key-" + std::to_string(i), value).ok());
    high_water = std::max(high_water, tree.memtable_bytes());
  }
  // The memtable never grows past the ceiling plus one record.
  EXPECT_LT(high_water, opts.memtable_ceiling_bytes + 256);
  EXPECT_GT(tree.flushes(), 5u);
  EXPECT_GE(tree.segment_count(), 1u);
  EXPECT_EQ(tree.size(), 500u);
  for (int i = 0; i < 500; i += 97) {
    EXPECT_EQ(tree.Get("key-" + std::to_string(i)).value(), value);
  }
}

TEST(LsmTreeTest, CompactionMergesRunsAndPreservesContent) {
  ScopedTempDir dir("compact");
  LsmOptions opts;
  opts.compaction_fanout = 2;
  LsmTree tree;
  ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  std::map<std::string, std::string> expect;
  for (int gen = 0; gen < 8; ++gen) {
    for (int i = 0; i < 10; ++i) {
      std::string key = common::StrFormat("k%d", (gen * 7 + i) % 40);
      std::string value = common::StrFormat("g%d", gen);
      ASSERT_TRUE(tree.Put(key, value).ok());
      expect[key] = value;
    }
    if (gen % 3 == 1) {
      std::string key = common::StrFormat("k%d", gen);
      if (expect.count(key)) {
        ASSERT_TRUE(tree.Delete(key).ok());
        expect.erase(key);
      }
    }
    ASSERT_TRUE(tree.Flush().ok());
  }
  EXPECT_GT(tree.compactions(), 0u);
  // Size-tiered merging keeps the run count well under the flush count.
  EXPECT_LT(tree.segment_count(), 8u);
  EXPECT_EQ(Contents(tree), expect);
  // And a reopen from the compacted manifest agrees byte for byte.
  LsmTree re;
  ASSERT_TRUE(re.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  EXPECT_EQ(Contents(re), expect);
}

TEST(LsmTreeTest, CorruptSegmentOrManifestRejectedAtEveryByte) {
  ScopedTempDir dir("corrupt");
  LsmOptions opts;
  {
    LsmTree tree;
    ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
    ASSERT_TRUE(tree.Put("alpha", "one").ok());
    ASSERT_TRUE(tree.Put("beta", "two").ok());
    ASSERT_TRUE(tree.Flush().ok());
  }
  for (const char* name : {"s-1.wfseg", "s.manifest"}) {
    const std::string path = dir.File(name);
    const std::string pristine = ReadAll(path);
    ASSERT_FALSE(pristine.empty()) << name;
    // Flip the low bit of every byte in turn: the checksummed envelope
    // must reject each one at open.
    for (size_t i = 0; i < pristine.size(); ++i) {
      std::string mutated = pristine;
      mutated[i] ^= 0x01;
      WriteRaw(path, mutated);
      LsmTree re;
      EXPECT_FALSE(re.OpenSegments(dir.path(), "s", opts, nullptr).ok())
          << name << " byte " << i;
    }
    // Truncate at every length short of the full file.
    for (size_t len = 0; len < pristine.size(); len += 7) {
      WriteRaw(path, pristine.substr(0, len));
      LsmTree re;
      EXPECT_FALSE(re.OpenSegments(dir.path(), "s", opts, nullptr).ok())
          << name << " truncated to " << len;
    }
    WriteRaw(path, pristine);
    LsmTree ok;
    ASSERT_TRUE(ok.OpenSegments(dir.path(), "s", opts, nullptr).ok()) << name;
  }
}

// Walks the flush protocol (segment write, manifest swap) through a crash
// at every durable op. After each simulated power loss, a fresh tree must
// come back with exactly the previously committed state — nothing lost,
// nothing resurrected, no stray files after the open's orphan sweep.
TEST(LsmTreeTest, FlushCrashAtEveryOpPreservesCommittedState) {
  LsmOptions opts;
  const std::map<std::string, std::string> committed = {{"a", "1"},
                                                        {"c", "3"}};
  std::map<std::string, std::string> full = committed;
  full["d"] = "4";
  full["e"] = "5";
  bool saw_crash = false;
  for (uint64_t crash_at = 0; crash_at < 32; ++crash_at) {
    ScopedTempDir dir("flushfuzz");
    StorageFaultInjector injector(/*seed=*/crash_at);
    LsmTree tree;
    ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, &injector).ok());
    // Committed generation: a and c live, b tombstoned into a segment.
    ASSERT_TRUE(tree.Put("a", "1").ok());
    ASSERT_TRUE(tree.Put("b", "2").ok());
    ASSERT_TRUE(tree.Put("c", "3").ok());
    ASSERT_TRUE(tree.Flush().ok());
    ASSERT_TRUE(tree.Delete("b").ok());
    ASSERT_TRUE(tree.Flush().ok());
    // New writes, then a flush that dies at durable op `crash_at`.
    ASSERT_TRUE(tree.Put("d", "4").ok());
    ASSERT_TRUE(tree.Put("e", "5").ok());
    injector.ArmOpCrash(dir.path(), crash_at);
    const common::Status flush = tree.Flush();
    const bool crashed = injector.counters().crashed > 0;
    injector.ClearCrashes();

    LsmTree re;
    ASSERT_TRUE(re.OpenSegments(dir.path(), "s", opts, nullptr).ok())
        << "crash_at=" << crash_at;
    const auto contents = Contents(re);
    if (flush.ok()) {
      EXPECT_EQ(contents, full) << "crash_at=" << crash_at;
    } else {
      // The memtable is volatile by contract (the WAL above this layer
      // replays it); everything previously committed must be intact.
      EXPECT_EQ(contents, committed) << "crash_at=" << crash_at;
    }
    // b stays dead in every outcome.
    EXPECT_FALSE(re.Contains("b")) << "crash_at=" << crash_at;
    // The reopen swept any half-flushed orphan: all that remains is the
    // manifest and the segments it lists.
    std::set<std::string> files = DirFiles(dir.path());
    ASSERT_TRUE(files.count("s.manifest")) << "crash_at=" << crash_at;
    size_t seg_files = 0;
    for (const std::string& f : files) {
      EXPECT_TRUE(f == "s.manifest" || f.find(".wfseg") != std::string::npos)
          << "stray file " << f << " at crash_at=" << crash_at;
      if (f.find(".wfseg") != std::string::npos) ++seg_files;
    }
    EXPECT_EQ(seg_files, re.segment_count()) << "crash_at=" << crash_at;

    if (!crashed) {
      // The armed op was past the end of the protocol: every earlier
      // power-loss point has been walked. Done.
      EXPECT_TRUE(flush.ok());
      saw_crash = crash_at > 0;
      break;
    }
  }
  EXPECT_TRUE(saw_crash) << "fuzz never reached a crash-free run";
}

// Same walk over a flush that also triggers compaction (fanout 2, so the
// second flush merges). A crashed compaction must leave the pre-compaction
// segments fully readable — compaction is pure reorganization, so the
// logical contents never change regardless of where power dies.
TEST(LsmTreeTest, CompactionCrashAtEveryOpKeepsOldSegmentsIntact) {
  LsmOptions opts;
  opts.compaction_fanout = 2;
  const std::map<std::string, std::string> committed = {
      {"a", "1"}, {"c", "3"}, {"d", "4"}};
  std::map<std::string, std::string> full = committed;
  full["e"] = "5";
  full.erase("d");
  bool done = false;
  for (uint64_t crash_at = 0; crash_at < 32 && !done; ++crash_at) {
    ScopedTempDir dir("compactfuzz");
    StorageFaultInjector injector(/*seed=*/crash_at);
    LsmTree tree;
    ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, &injector).ok());
    ASSERT_TRUE(tree.Put("a", "1").ok());
    ASSERT_TRUE(tree.Put("b", "2").ok());
    ASSERT_TRUE(tree.Put("c", "3").ok());
    ASSERT_TRUE(tree.Put("d", "4").ok());
    ASSERT_TRUE(tree.Flush().ok());
    ASSERT_TRUE(tree.Delete("b").ok());
    ASSERT_TRUE(tree.Flush().ok());  // b's tombstone commits (and compacts)
    // This generation tombstones d and adds e; its flush creates a second
    // tier-0 segment and compaction merges the run.
    ASSERT_TRUE(tree.Delete("d").ok());
    ASSERT_TRUE(tree.Put("e", "5").ok());
    injector.ArmOpCrash(dir.path(), crash_at);
    const common::Status flush = tree.Flush();
    const bool crashed = injector.counters().crashed > 0;
    injector.ClearCrashes();

    LsmTree re;
    ASSERT_TRUE(re.OpenSegments(dir.path(), "s", opts, nullptr).ok())
        << "crash_at=" << crash_at;
    const auto contents = Contents(re);
    if (flush.ok()) {
      EXPECT_EQ(contents, full) << "crash_at=" << crash_at;
    } else {
      // Either the flush committed (memtable generation durable, maybe
      // with the compaction half-done and rolled back) or it did not.
      // Both are consistent states; b and d must never come back once
      // their tombstones committed.
      const bool is_full = contents == full;
      const bool is_committed = contents == committed;
      EXPECT_TRUE(is_full || is_committed)
          << "crash_at=" << crash_at << " left an inconsistent state";
    }
    EXPECT_FALSE(re.Contains("b")) << "crash_at=" << crash_at;
    if (!crashed) {
      EXPECT_TRUE(flush.ok());
      EXPECT_GT(tree.compactions(), 0u);
      done = true;
    }
  }
  EXPECT_TRUE(done) << "fuzz never reached a crash-free run";
}

// --- frozen index tiers -----------------------------------------------------

Entity ReviewEntity(const std::string& id, const std::string& body,
                    double rating) {
  Entity e(id, "reviews");
  e.SetBody(body);
  e.SetField("rating", std::to_string(rating));
  return e;
}

// Drives the same logical sequence into an ephemeral index and a tiered
// one (frozen mid-way, twice, with compaction fanout 2), then demands
// identical answers from every query type and byte-identical Save output.
TEST(FrozenIndexTest, TieredIndexAnswersExactlyLikeEphemeral) {
  ScopedTempDir dir("frozen_equiv");
  InvertedIndex plain;
  InvertedIndex tiered;
  ASSERT_TRUE(tiered
                  .EnableSegments(dir.path(), "idx", /*injector=*/nullptr,
                                  /*compaction_fanout=*/2)
                  .ok());

  auto both = [&](const std::function<void(InvertedIndex&)>& fn) {
    fn(plain);
    fn(tiered);
  };

  both([](InvertedIndex& idx) {
    idx.IndexEntity(ReviewEntity("d1", "the battery life is great", 4.5));
    idx.IndexEntity(ReviewEntity("d2", "battery drains fast and hot", 2.0));
  });
  ASSERT_TRUE(tiered.Freeze().ok());  // tier 1: d1, d2
  both([](InvertedIndex& idx) {
    idx.IndexEntity(ReviewEntity("d3", "screen is great but battery poor",
                                 3.0));
    // A frozen doc gains a concept token and a field: its new version is
    // the whole entity again and shadows the frozen one.
    Entity d1 = ReviewEntity("d1", "the battery life is great", 4.5);
    d1.AddConceptToken("Sentiment/Positive");
    d1.SetField("helpfulness", "10");
    idx.IndexEntity(d1);
  });
  ASSERT_TRUE(tiered.Freeze().ok());  // tier 2 → compaction (fanout 2)
  both([](InvertedIndex& idx) {
    // A full re-index of a frozen doc: the new version must shadow every
    // older tier.
    idx.IndexEntity(ReviewEntity("d2", "replacement unit works great", 5.0));
    idx.IndexEntity(ReviewEntity("d4", "no complaints", 4.0));
  });
  // d4 and the d2 re-index stay in the delta tier: queries must merge
  // delta over frozen correctly.

  auto expect_same = [&](const char* what,
                         const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
    EXPECT_EQ(a, b) << what;
  };
  for (const std::string term :
       {"battery", "great", "fast", "screen", "sentiment/positive",
        "missing"}) {
    expect_same(("Term " + term).c_str(), plain.Term(term),
                tiered.Term(term));
  }
  expect_same("And", plain.And({"battery", "great"}),
              tiered.And({"battery", "great"}));
  expect_same("Or", plain.Or({"screen", "fast"}),
              tiered.Or({"screen", "fast"}));
  expect_same("Not", plain.Not("great", "battery"),
              tiered.Not("great", "battery"));
  expect_same("Phrase", plain.Phrase({"battery", "life"}),
              tiered.Phrase({"battery", "life"}));
  expect_same("Phrase2", plain.Phrase({"works", "great"}),
              tiered.Phrase({"works", "great"}));
  expect_same("Prefix", plain.Prefix("bat"), tiered.Prefix("bat"));
  expect_same("Regex", plain.MatchRegex("dra.*|scr.*"),
              tiered.MatchRegex("dra.*|scr.*"));
  expect_same("Range", plain.Range("rating", 3.0, 5.0),
              tiered.Range("rating", 3.0, 5.0));
  expect_same("RangeTouch", plain.Range("helpfulness", 5, 15),
              tiered.Range("helpfulness", 5, 15));
  EXPECT_EQ(plain.TermFrequency("battery", "d1"),
            tiered.TermFrequency("battery", "d1"));
  EXPECT_EQ(plain.TermFrequency("battery", "d2"),
            tiered.TermFrequency("battery", "d2"));  // shadowed by re-index
  EXPECT_EQ(plain.document_count(), tiered.document_count());
  EXPECT_EQ(plain.vocabulary_size(), tiered.vocabulary_size());
  EXPECT_EQ(plain.VocabularyWithPrefix("b"), tiered.VocabularyWithPrefix("b"));

  // The canonical snapshot is a pure function of logical content: the
  // tier layout must not leak into the bytes.
  ASSERT_TRUE(plain.Save(dir.File("plain.idx")).ok());
  ASSERT_TRUE(tiered.Save(dir.File("tiered.idx")).ok());
  EXPECT_EQ(ReadAll(dir.File("plain.idx")), ReadAll(dir.File("tiered.idx")));
}

TEST(FrozenIndexTest, FrozenTiersSurviveReopen) {
  ScopedTempDir dir("frozen_reopen");
  {
    InvertedIndex idx;
    ASSERT_TRUE(idx.EnableSegments(dir.path(), "idx").ok());
    idx.IndexEntity(ReviewEntity("d1", "battery life is great", 4.0));
    idx.IndexEntity(ReviewEntity("d2", "poor battery", 1.5));
    ASSERT_TRUE(idx.Freeze().ok());
    EXPECT_EQ(idx.frozen_segment_count(), 1u);
  }
  InvertedIndex re;
  ASSERT_TRUE(re.EnableSegments(dir.path(), "idx").ok());
  EXPECT_EQ(re.frozen_segment_count(), 1u);
  EXPECT_EQ(re.document_count(), 2u);
  EXPECT_EQ(re.Term("battery"), (std::vector<std::string>{"d1", "d2"}));
  EXPECT_EQ(re.Phrase({"battery", "life"}),
            (std::vector<std::string>{"d1"}));
  EXPECT_EQ(re.Range("rating", 3.0, 5.0), (std::vector<std::string>{"d1"}));
}

TEST(FrozenIndexTest, FullyShadowedFrozenTermsLeaveTheVocabulary) {
  ScopedTempDir dir("frozen_vocab");
  InvertedIndex idx;
  ASSERT_TRUE(idx.EnableSegments(dir.path(), "idx").ok());
  idx.IndexEntity(ReviewEntity("d1", "alpha beta", 4.0));
  ASSERT_TRUE(idx.Freeze().ok());
  EXPECT_EQ(idx.vocabulary_size(), 2u);
  // The delta's full version of d1 shadows the frozen "alpha" posting.
  idx.IndexEntity(ReviewEntity("d1", "beta", 4.0));
  EXPECT_EQ(idx.vocabulary_size(), 1u);
  EXPECT_TRUE(idx.VocabularyWithPrefix("al").empty());
  ASSERT_TRUE(idx.Freeze().ok());  // a layout change, not a content one
  EXPECT_EQ(idx.vocabulary_size(), 1u);
  Entity d2("d2", "reviews");
  d2.AddConceptToken("alpha");
  idx.IndexEntity(d2);
  EXPECT_EQ(idx.vocabulary_size(), 2u);
  EXPECT_EQ(idx.VocabularyWithPrefix("al"),
            (std::vector<std::string>{"alpha"}));
}

// An empty concept token, field name or doc id escapes to nothing, so its
// run line reads `t  <len>`, `f  <value> <ord>` or `d 1 `: the reader keeps
// the empty piece, and the frozen run answers as the delta did.
TEST(FrozenIndexTest, EmptyTokenFieldAndDocIdSurviveFreezeAndReopen) {
  ScopedTempDir dir("frozen_empty");
  Entity page("d1", "reviews");
  page.SetBody("plain words");
  page.AddConceptToken("");
  page.SetField("", "4.5");
  Entity nameless("", "reviews");
  nameless.SetBody("more words");
  std::vector<std::string> term, range, words;
  {
    InvertedIndex idx;
    ASSERT_TRUE(idx.EnableSegments(dir.path(), "idx").ok());
    idx.IndexEntity(page);
    idx.IndexEntity(nameless);
    term = idx.Term("");
    range = idx.Range("", 4.0, 5.0);
    words = idx.Term("words");
    EXPECT_EQ(term, (std::vector<std::string>{"d1"}));
    EXPECT_EQ(range, (std::vector<std::string>{"d1"}));
    EXPECT_EQ(words, (std::vector<std::string>{"", "d1"}));
    ASSERT_TRUE(idx.Freeze().ok());
    EXPECT_EQ(idx.frozen_segment_count(), 1u);
  }
  InvertedIndex reopened;
  ASSERT_TRUE(reopened.EnableSegments(dir.path(), "idx").ok());
  EXPECT_EQ(reopened.frozen_segment_count(), 1u);
  EXPECT_EQ(reopened.Term(""), term);
  EXPECT_EQ(reopened.Range("", 4.0, 5.0), range);
  EXPECT_EQ(reopened.Term("words"), words);
}

TEST(FrozenIndexTest, FreezeCrashAtEveryOpPreservesCommittedTiers) {
  bool done = false;
  for (uint64_t crash_at = 0; crash_at < 16 && !done; ++crash_at) {
    ScopedTempDir dir("freezefuzz");
    StorageFaultInjector injector(/*seed=*/crash_at);
    InvertedIndex idx;
    ASSERT_TRUE(idx.EnableSegments(dir.path(), "idx", &injector).ok());
    idx.IndexEntity(ReviewEntity("d1", "battery life", 4.0));
    ASSERT_TRUE(idx.Freeze().ok());
    idx.IndexEntity(ReviewEntity("d2", "screen glare", 2.0));
    injector.ArmOpCrash(dir.path(), crash_at);
    const common::Status freeze = idx.Freeze();
    const bool crashed = injector.counters().crashed > 0;
    injector.ClearCrashes();

    InvertedIndex re;
    ASSERT_TRUE(re.EnableSegments(dir.path(), "idx").ok())
        << "crash_at=" << crash_at;
    // The committed tier always answers; the second generation only if
    // its manifest swap went through.
    EXPECT_EQ(re.Term("battery"), (std::vector<std::string>{"d1"}))
        << "crash_at=" << crash_at;
    if (freeze.ok()) {
      EXPECT_EQ(re.Term("screen"), (std::vector<std::string>{"d2"}))
          << "crash_at=" << crash_at;
    }
    if (!crashed) {
      EXPECT_TRUE(freeze.ok());
      done = true;
    }
  }
  EXPECT_TRUE(done) << "fuzz never reached a crash-free run";
}

TEST(FrozenIndexTest, CorruptSegmentOrManifestRejectedAtEveryByte) {
  ScopedTempDir dir("frozen_corrupt");
  {
    InvertedIndex idx;
    ASSERT_TRUE(idx.EnableSegments(dir.path(), "idx").ok());
    Entity d1 = ReviewEntity("d1", "battery life is great", 4.0);
    d1.AddConceptToken("Sentiment/Positive");
    idx.IndexEntity(d1);
    ASSERT_TRUE(idx.Freeze().ok());
  }
  for (const char* name : {"idx-1.wfseg", "idx.manifest"}) {
    const std::string path = dir.File(name);
    const std::string pristine = ReadAll(path);
    ASSERT_FALSE(pristine.empty()) << name;
    for (size_t i = 0; i < pristine.size(); ++i) {
      std::string mutated = pristine;
      mutated[i] ^= 0x01;
      WriteRaw(path, mutated);
      InvertedIndex re;
      EXPECT_FALSE(re.EnableSegments(dir.path(), "idx").ok())
          << name << " byte " << i;
    }
    for (size_t len = 0; len < pristine.size(); len += 7) {
      WriteRaw(path, pristine.substr(0, len));
      InvertedIndex re;
      EXPECT_FALSE(re.EnableSegments(dir.path(), "idx").ok())
          << name << " truncated to " << len;
    }
    WriteRaw(path, pristine);
    InvertedIndex ok;
    ASSERT_TRUE(ok.EnableSegments(dir.path(), "idx").ok()) << name;
    EXPECT_EQ(ok.Term("sentiment/positive"), (std::vector<std::string>{"d1"}));
  }
}

// A segment file written by hand: `payload` under the checksummed envelope.
void WriteIndexSegmentPayload(const std::string& path,
                              const std::string& payload) {
  ASSERT_TRUE(common::WriteSnapshotFile(path, common::kSnapKindIndexSegment,
                                        /*version=*/1, payload)
                  .ok());
}

// Every doc in a segment is a whole version, marked `d 1`. A `d 0` line
// (a partial version) is refused, not read as a doc of some other kind.
TEST(IndexSegmentTest, PartialDocLineIsCorruption) {
  ScopedTempDir dir("partial_doc");
  WriteIndexSegmentPayload(dir.File("whole.wfseg"), "wfpost 1 1 0 0\nd 1 a\n");
  auto whole = store::IndexSegmentReader::Open(dir.File("whole.wfseg"));
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole.value()->docs(), (std::vector<std::string>{"a"}));
  WriteIndexSegmentPayload(dir.File("partial.wfseg"),
                           "wfpost 1 1 0 0\nd 0 a\n");
  EXPECT_EQ(store::IndexSegmentReader::Open(dir.File("partial.wfseg"))
                .status()
                .code(),
            common::StatusCode::kCorruption);
}

// The writer refuses a posting or a field value naming an ordinal past
// the doc table, as it refuses unsorted docs; nothing reaches the disk.
TEST(IndexSegmentTest, WriterRejectsDanglingOrdinals) {
  ScopedTempDir dir("dangling_write");
  const uint32_t positions[] = {0};
  const store::IndexRunWriter::Posting dangling[] = {{5, positions}};
  store::IndexRunWriter posting;
  posting.AddDoc("a");
  posting.AddTerm("word", dangling);
  EXPECT_EQ(posting.WriteTo(dir.File("p.wfseg"), nullptr).code(),
            common::StatusCode::kInvalidArgument);
  const store::FieldValueEntry value[] = {{4.0, 1}};
  store::IndexRunWriter field;
  field.AddDoc("a");
  field.AddField("rating", value);
  EXPECT_EQ(field.WriteTo(dir.File("f.wfseg"), nullptr).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_TRUE(DirFiles(dir.path()).empty());
}

// A run whose one posting names doc 5 of a one-doc table, checksummed and
// listed in a manifest: the index's only restore path refuses it, so no
// later query or stats call meets the dangling posting.
TEST(FrozenIndexTest, EnableSegmentsRejectsDanglingPosting) {
  ScopedTempDir dir("dangling_restore");
  std::string block;
  store::PutVarint(1, &block);  // one posting
  store::PutVarint(5, &block);  // its doc ordinal
  store::PutVarint(0, &block);  // no positions
  const std::string run = dir.File(store::RunFileName("idx", 1));
  WriteIndexSegmentPayload(run, "wfpost 1 1 1 0\nd 1 a\nt word " +
                                    std::to_string(block.size()) + "\n" +
                                    block + "\n");
  store::ManifestData manifest;
  manifest.next_segment_id = 2;
  manifest.segments.push_back(
      store::SegmentMeta{1, 1, std::filesystem::file_size(run)});
  ASSERT_TRUE(
      store::SaveManifest(dir.File("idx.manifest"), manifest, nullptr).ok());
  InvertedIndex index;
  EXPECT_EQ(index.EnableSegments(dir.path(), "idx").code(),
            common::StatusCode::kCorruption);
}

// The canonical image of `idx` (Save bytes): its whole logical content.
std::string IndexImage(const InvertedIndex& idx, const std::string& path) {
  EXPECT_TRUE(idx.Save(path).ok());
  return ReadAll(path);
}

// The index's analogue of the store's compaction walk: a third freeze that
// re-indexes a frozen doc adds a second tier-0 run, and fanout 2 merges it.
// Power dies at each durable op in turn; the reopened index must hold
// exactly the committed generation or exactly the full one.
TEST(FrozenIndexTest, CompactionCrashAtEveryOpKeepsOldTiersIntact) {
  // d1's second version carries a miner's concept token.
  Entity tagged = ReviewEntity("d1", "battery life is great", 4.0);
  tagged.AddConceptToken("Sentiment/Positive");
  const auto committed_ops = [&tagged](InvertedIndex& idx) {
    idx.IndexEntity(ReviewEntity("d1", "battery life is great", 4.0));
    idx.IndexEntity(ReviewEntity("d2", "screen glare", 2.0));
    idx.IndexEntity(tagged);
  };
  const auto last_ops = [](InvertedIndex& idx) {
    idx.IndexEntity(ReviewEntity("d1", "battery died fast", 1.0));
    idx.IndexEntity(ReviewEntity("d3", "great keyboard", 5.0));
  };
  ScopedTempDir images("frozen_compactfuzz_images");
  InvertedIndex reference;
  committed_ops(reference);
  const std::string committed = IndexImage(reference, images.File("c.idx"));
  last_ops(reference);
  const std::string full = IndexImage(reference, images.File("f.idx"));
  ASSERT_NE(committed, full);

  size_t crash_points = 0;
  bool done = false;
  for (uint64_t crash_at = 0; crash_at < 16 && !done; ++crash_at) {
    ScopedTempDir dir("frozen_compactfuzz");
    StorageFaultInjector injector(/*seed=*/crash_at);
    InvertedIndex idx;
    ASSERT_TRUE(idx.EnableSegments(dir.path(), "idx", &injector,
                                   /*compaction_fanout=*/2)
                    .ok());
    idx.IndexEntity(ReviewEntity("d1", "battery life is great", 4.0));
    ASSERT_TRUE(idx.Freeze().ok());
    idx.IndexEntity(ReviewEntity("d2", "screen glare", 2.0));
    idx.IndexEntity(tagged);
    ASSERT_TRUE(idx.Freeze().ok());  // the second run compacts
    last_ops(idx);
    injector.ArmOpCrash(dir.path(), crash_at);
    const common::Status freeze = idx.Freeze();
    const bool crashed = injector.counters().crashed > 0;
    injector.ClearCrashes();

    InvertedIndex re;
    ASSERT_TRUE(re.EnableSegments(dir.path(), "idx", nullptr,
                                  /*compaction_fanout=*/2)
                    .ok())
        << "crash_at=" << crash_at;
    const std::string image = IndexImage(re, images.File("re.idx"));
    if (freeze.ok()) {
      EXPECT_EQ(image, full) << "crash_at=" << crash_at;
    } else {
      EXPECT_TRUE(image == full || image == committed)
          << "crash_at=" << crash_at << " left a mixed generation";
    }
    // The reopen swept every orphan: the manifest and its runs remain.
    auto manifest = store::LoadManifest(dir.File("idx.manifest"));
    ASSERT_TRUE(manifest.ok()) << "crash_at=" << crash_at;
    std::set<std::string> listed = {"idx.manifest"};
    for (const store::SegmentMeta& meta : manifest.value().segments) {
      listed.insert(common::StrFormat(
          "idx-%llu.wfseg", static_cast<unsigned long long>(meta.id)));
    }
    EXPECT_EQ(DirFiles(dir.path()), listed) << "crash_at=" << crash_at;
    if (crashed) {
      ++crash_points;
    } else {
      EXPECT_TRUE(freeze.ok());
      done = true;
    }
  }
  EXPECT_TRUE(done) << "fuzz never reached a crash-free run";
  // The freeze's segment and manifest, then the merge's.
  EXPECT_GE(crash_points, 4u);
}

// A directory spelled with a trailing "/" or "/./" names the same files.
// The open's orphan sweep must still recognize every adopted run, on the
// first reopen and on the ones after it, for the store and the index.
TEST(SegmentDirTest, TrailingSlashOrDotKeepsCheckpointedRuns) {
  for (const std::string suffix : {"/", "/./"}) {
    ScopedTempDir dir("dir_spelling");
    const std::string spelled = dir.path() + suffix;
    {
      LsmTree tree;
      ASSERT_TRUE(tree.OpenSegments(spelled, "s", LsmOptions(), nullptr).ok());
      ASSERT_TRUE(tree.Put("alpha", "one").ok());
      ASSERT_TRUE(tree.Flush().ok());
      InvertedIndex idx;
      ASSERT_TRUE(idx.EnableSegments(spelled, "idx").ok());
      idx.IndexEntity(ReviewEntity("d1", "battery life", 4.0));
      ASSERT_TRUE(idx.Freeze().ok());
    }
    for (int reopen = 1; reopen <= 2; ++reopen) {
      LsmTree tree;
      ASSERT_TRUE(tree.OpenSegments(spelled, "s", LsmOptions(), nullptr).ok())
          << suffix << " reopen " << reopen;
      auto got = tree.Get("alpha");
      ASSERT_TRUE(got.ok()) << suffix << " reopen " << reopen << ": "
                            << got.status().ToString();
      EXPECT_EQ(got.value(), "one");
      InvertedIndex idx;
      ASSERT_TRUE(idx.EnableSegments(spelled, "idx").ok())
          << suffix << " reopen " << reopen;
      ASSERT_EQ(DirFiles(dir.path()),
                (std::set<std::string>{"idx-1.wfseg", "idx.manifest",
                                       "s-1.wfseg", "s.manifest"}))
          << suffix << " reopen " << reopen;
      EXPECT_EQ(idx.Term("battery"), (std::vector<std::string>{"d1"}));
    }
  }
}

// --- on-disk readers at boundary numbers ------------------------------------
//
// Every number a reader parses out of a file, set in turn to 0, 1, 2^32,
// 2^63, 2^64 - 1, 2^64 and two spellings a strict parser refuses. Files
// with an envelope are rewrapped so the checksum passes and the reader
// reaches the number. Each open must come back OK or Corruption (the log
// reads a frame that does not verify as a torn tail), never abort or read
// out of bounds.

// One file format: its valid numbers, the payload they make, and a read of
// that payload.
struct NumberedFormat {
  std::vector<std::string> names;  // what each number is
  std::vector<std::string> valid;  // the numbers of a payload that reads OK
  std::function<std::string(const std::vector<std::string>&)> payload;
  std::function<common::Status(const std::string& payload)> read;
};

TEST(DiskReaderTest, BoundaryNumbersReadAsOkOrCorruption) {
  ScopedTempDir dir("boundary");
  const std::string path = dir.File("probe");
  std::string block;  // one posting: doc 0 at position 0
  for (uint64_t v : {1, 0, 1, 0}) store::PutVarint(v, &block);
  auto wrapped = [&path](const char* kind, const std::string& payload) {
    EXPECT_TRUE(common::WriteSnapshotFile(path, kind, 1, payload).ok());
  };

  const std::vector<NumberedFormat> formats = {
      {{"store record count", "store key length", "store value length",
        "store record flag"},
       {"2", "1", "2", "0"},
       [](const std::vector<std::string>& n) {
         return "wfseg 1 " + n[0] + "\nr " + n[1] + " " + n[2] + " " + n[3] +
                "\nakv\nr 1 0 1\nb\n";
       },
       [&](const std::string& payload) {
         wrapped(common::kSnapKindSegment, payload);
         return store::SegmentReader::Open(path).status();
       }},
      {{"index doc count", "index term count", "index field count",
        "index block length"},
       {"1", "1", "1", std::to_string(block.size())},
       [&block](const std::vector<std::string>& n) {
         return "wfpost 1 " + n[0] + " " + n[1] + " " + n[2] +
                "\nd 1 doc\nt term " + n[3] + "\n" + block +
                "\nf rating 4 0\n";
       },
       [&](const std::string& payload) {
         wrapped(common::kSnapKindIndexSegment, payload);
         return store::IndexSegmentReader::Open(path).status();
       }},
      {{"manifest next id", "manifest segment id",
        "manifest segment records", "manifest segment bytes"},
       {"3", "2", "5", "120"},
       [](const std::vector<std::string>& n) {
         return "wfman 1\nnext " + n[0] + "\nseg " + n[1] + " " + n[2] + " " +
                n[3] + "\n";
       },
       [&](const std::string& payload) {
         wrapped(common::kSnapKindManifest, payload);
         return store::LoadManifest(path).status();
       }},
      {{"wal frame length"},
       {"3"},
       [](const std::vector<std::string>& n) {
         return "wfwal 1\nrec " + n[0] + " " +
                common::StrFormat("%016llx", static_cast<unsigned long long>(
                                                 common::Fnv1a64("abc"))) +
                "\nabc\n";
       },
       [&path](const std::string& payload) {
         WriteRaw(path, payload);
         auto replay = platform::WriteAheadLog::Replay(path);
         if (!replay.ok()) return replay.status();
         // A frame that does not verify ends the log as a torn tail.
         EXPECT_EQ(replay.value().records.size(),
                   replay.value().torn_tail ? 0u : 1u);
         return replay.value().torn_tail
                    ? common::Status::Corruption("torn tail")
                    : common::Status::Ok();
       }},
  };
  const std::vector<std::string> boundaries = {
      "0",
      "1",
      "4294967296",
      "9223372036854775808",
      "18446744073709551615",
      "18446744073709551616",
      "-1",
      "+1"};
  for (const NumberedFormat& format : formats) {
    ASSERT_TRUE(format.read(format.payload(format.valid)).ok())
        << format.names[0];
    for (size_t i = 0; i < format.valid.size(); ++i) {
      for (const std::string& number : boundaries) {
        std::vector<std::string> numbers = format.valid;
        numbers[i] = number;
        const common::Status status = format.read(format.payload(numbers));
        EXPECT_TRUE(status.ok() ||
                    status.code() == common::StatusCode::kCorruption)
            << format.names[i] << " = " << number << ": " << status.ToString();
        if (number == "-1" || number == "+1") {
          EXPECT_FALSE(status.ok()) << format.names[i] << " = " << number;
        }
        if (format.names[i] == "store record flag") {
          EXPECT_EQ(status.ok(), number == "0" || number == "1")
              << "flag " << number << ": " << status.ToString();
        }
      }
    }
  }
}

// --- segment layout goldens -------------------------------------------------
//
// Save writes a layout-free image, so the goldens above cannot see a
// changed flush or compaction schedule. These hash the files themselves:
// the manifest, then each run it lists, oldest first.

// FNV-1a of `<base>.manifest` followed by its runs; `tiers` gets the size
// tier of each run.
uint64_t LayoutFingerprint(const std::string& dir, const std::string& base,
                           std::set<size_t>* tiers) {
  const std::string manifest_path = dir + "/" + base + ".manifest";
  auto manifest = store::LoadManifest(manifest_path);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  if (!manifest.ok()) return 0;
  std::string bytes = ReadAll(manifest_path);
  for (const store::SegmentMeta& meta : manifest.value().segments) {
    bytes += ReadAll(dir + "/" + store::RunFileName(base, meta.id));
    tiers->insert(store::SizeTierOf(meta.bytes));
  }
  return common::Fnv1a64(bytes);
}

// Checks `<prefix>/bytes_written_total` against the runs: every run is
// written once and is either live or a compaction input, so the bytes
// written are the live runs' bytes plus the bytes compaction rewrote.
// Returns the counter.
uint64_t CheckBytesWritten(const obs::MetricsRegistry& metrics,
                           const std::string& prefix, const std::string& dir,
                           const std::string& base) {
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  const uint64_t written =
      snapshot.CounterValue(prefix + "/bytes_written_total");
  const uint64_t rewritten =
      snapshot.CounterValue(prefix + "/compaction_bytes_rewritten_total");
  auto manifest = store::LoadManifest(dir + "/" + base + ".manifest");
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  uint64_t live = 0;
  if (manifest.ok()) {
    for (const store::SegmentMeta& meta : manifest.value().segments) {
      live += meta.bytes;
    }
  }
  EXPECT_GT(rewritten, 0u) << prefix;
  EXPECT_EQ(written, live + rewritten) << prefix;
  return written;
}

// A deterministic pick in [0, n) for step `i` of stream `salt`.
size_t Pick(const std::string& salt, size_t i, size_t n) {
  return common::Fnv1a64(salt + std::to_string(i)) % n;
}

TEST(SegmentLayoutTest, StoreRunsMatchGolden) {
  ScopedTempDir dir("layout_store");
  LsmOptions opts;
  opts.memtable_ceiling_bytes = 2 << 10;
  opts.compaction_fanout = 2;
  obs::MetricsRegistry metrics;
  LsmTree tree;
  tree.AttachMetrics(&metrics, "store");
  ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  for (size_t i = 0; i < 1500; ++i) {
    const std::string key =
        common::StrFormat("key-%03zu", Pick("k", i, 400));
    if (Pick("del", i, 6) == 0 && tree.Contains(key)) {
      ASSERT_TRUE(tree.Delete(key).ok());
      continue;
    }
    const std::string value =
        common::StrFormat("v%zu:", i) + std::string(Pick("len", i, 48), 'x');
    ASSERT_TRUE(tree.Put(key, value).ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  EXPECT_EQ(tree.flushes(), 69u);
  EXPECT_EQ(tree.compactions(), 67u);
  std::set<size_t> tiers;
  EXPECT_EQ(LayoutFingerprint(dir.path(), "s", &tiers),
            0x6dc2697f93702209ull);
  EXPECT_GE(tiers.size(), 2u);
  EXPECT_EQ(CheckBytesWritten(metrics, "store", dir.path(), "s"), 376718u);
}

TEST(SegmentLayoutTest, IndexRunsMatchGolden) {
  ScopedTempDir dir("layout_index");
  const std::vector<std::string> words = {
      "battery", "screen",  "zoom",  "lens",  "great", "poor",
      "glare",   "quality", "price", "strap", "flash", "menu",
      "sharp",   "blurry",  "heavy", "light", "fast",  "slow"};
  obs::MetricsRegistry metrics;
  InvertedIndex idx;
  idx.AttachMetrics(&metrics);
  ASSERT_TRUE(idx.EnableSegments(dir.path(), "idx", nullptr,
                                 /*compaction_fanout=*/2)
                  .ok());
  // Each id's newest version: a touch re-indexes it whole.
  std::map<std::string, Entity> latest;
  for (size_t step = 0; step < 7 * 30; ++step) {
    // Ids repeat across freezes, so later runs re-index frozen docs.
    const std::string id =
        common::StrFormat("doc-%02zu", Pick("id", step, 120));
    Entity e(id, "reviews");
    std::string body;
    for (size_t w = 0; w < 12 + Pick("n", step, 12); ++w) {
      if (w > 0) body += " ";
      body += words[Pick("w", step * 31 + w, words.size())];
    }
    e.SetBody(body);
    e.SetField("rating", std::to_string(Pick("r", step, 5) + 1));
    e.AddConceptToken(Pick("pol", step, 2) == 0 ? "Sentiment/Positive"
                                               : "Sentiment/Negative");
    idx.IndexEntity(e);
    latest[id] = std::move(e);
    if (Pick("touch", step, 4) == 0) {
      // An id never indexed before starts as an empty entity.
      const std::string touched =
          common::StrFormat("doc-%02zu", Pick("t", step, 120));
      Entity& t = latest.try_emplace(touched, touched, "reviews").first->second;
      t.AddConceptToken("Subject/" + words[Pick("s", step, words.size())]);
      idx.IndexEntity(t);
    }
    if (step % 30 == 29) {
      ASSERT_TRUE(idx.Freeze().ok());
    }
  }
  std::set<size_t> tiers;
  EXPECT_EQ(LayoutFingerprint(dir.path(), "idx", &tiers),
            0xa65347af74840999ull);
  EXPECT_GE(tiers.size(), 2u);
  EXPECT_EQ(CheckBytesWritten(metrics, "index", dir.path(), "idx"), 45817u);
}

// --- point reads and writes -------------------------------------------------
//
// Seeded Put/Insert/Delete/Update traffic over a segmented tree, then a Get
// and a Contains of every key. The answers must match a plain map. The
// read counters are pinned, so a change to the one tier lookup that alters
// how many tiers a Get examines, or how many segment probes the Bloom
// filters settle, fails here.
TEST(LsmTreeTest, PointOpsMatchAModelAndCountTiersAndBloomProbes) {
  ScopedTempDir dir("point_ops");
  LsmOptions opts;
  opts.memtable_ceiling_bytes = 4 << 10;
  opts.compaction_fanout = 4;
  obs::MetricsRegistry metrics;
  LsmTree tree;
  tree.AttachMetrics(&metrics, "store");
  ASSERT_TRUE(tree.OpenSegments(dir.path(), "s", opts, nullptr).ok());
  constexpr size_t kKeys = 800;
  // 18-byte ids, past the small-string buffer, as the crawl's ids are.
  auto key_of = [](size_t k) {
    return common::StrFormat("petroleum-web-%04zu", k);
  };
  std::map<std::string, std::string> model;
  for (size_t i = 0; i < 3000; ++i) {
    const std::string key = key_of(Pick("key", i, kKeys));
    const std::string value =
        common::StrFormat("v%zu:", i) + std::string(Pick("len", i, 64), 'x');
    const bool live = model.count(key) > 0;
    switch (Pick("op", i, 4)) {
      case 0:
        ASSERT_TRUE(tree.Put(key, value).ok());
        model[key] = value;
        break;
      case 1:
        EXPECT_EQ(tree.Insert(key, value).code(),
                  live ? common::StatusCode::kAlreadyExists
                       : common::StatusCode::kOk);
        model.try_emplace(key, value);
        break;
      case 2:
        EXPECT_EQ(tree.Delete(key).code(), live ? common::StatusCode::kOk
                                                : common::StatusCode::kNotFound);
        model.erase(key);
        break;
      default:
        EXPECT_EQ(tree.Update(key,
                              [i](std::string* v) {
                                *v += common::StrFormat("+%zu", i);
                                return common::Status::Ok();
                              })
                      .code(),
                  live ? common::StatusCode::kOk
                       : common::StatusCode::kNotFound);
        if (live) model[key] += common::StrFormat("+%zu", i);
        break;
    }
  }
  for (size_t k = 0; k < kKeys; ++k) {
    const std::string key = key_of(k);
    auto it = model.find(key);
    auto got = tree.Get(key);
    if (it == model.end()) {
      EXPECT_EQ(got.status().code(), common::StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), it->second) << key;
    }
    EXPECT_EQ(tree.Contains(key), it != model.end()) << key;
  }
  EXPECT_EQ(Contents(tree), model);
  std::vector<std::string> keys;
  tree.ForEachKey([&keys](const std::string& key) { keys.push_back(key); });
  std::vector<std::string> model_keys;
  for (const auto& [key, value] : model) model_keys.push_back(key);
  EXPECT_EQ(keys, model_keys);
  EXPECT_EQ(tree.size(), model.size());

  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("store/gets_total"), kKeys);
  EXPECT_EQ(snapshot.CounterValue("store/read_tiers_total"), 3612u);
  EXPECT_EQ(snapshot.CounterValue("store/bloom_hits_total"), 12297u);
  EXPECT_EQ(snapshot.CounterValue("store/bloom_misses_total"), 1888u);
  EXPECT_EQ(tree.flushes(), 25u);
  EXPECT_EQ(tree.compactions(), 7u);
}

// --- DataStore over segments ------------------------------------------------

TEST(DataStoreSegmentsTest, HoldsHundredXCorpusWithBoundedMemtable) {
  // 100x the seed corpus (60k+ entities) against a 32 KiB memtable: the
  // shard must stay correct while only a sliver of it is in RAM.
  ScopedTempDir dir("hundredx");
  LsmOptions opts;
  opts.memtable_ceiling_bytes = 32 << 10;
  DataStore ds;
  ASSERT_TRUE(ds.EnableSegments(dir.path(), "store", opts).ok());
  const size_t kEntities = 60'000;
  uint64_t high_water = 0;
  for (size_t i = 0; i < kEntities; ++i) {
    Entity e("doc-" + std::to_string(i), "corpus");
    e.SetBody("review body number " + std::to_string(i));
    ASSERT_TRUE(ds.Upsert(std::move(e)).ok());
    high_water = std::max(high_water, ds.memtable_bytes());
  }
  EXPECT_LT(high_water, opts.memtable_ceiling_bytes + 1024);
  EXPECT_EQ(ds.size(), kEntities);
  EXPECT_GT(ds.flushes(), 10u);
  EXPECT_GT(ds.compactions(), 0u);
  // Compaction keeps the run count logarithmic-ish, not linear in flushes.
  EXPECT_LT(ds.segment_count(), ds.flushes());
  for (size_t i = 0; i < kEntities; i += 9973) {
    auto got = ds.Get("doc-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got.value().body(), "review body number " + std::to_string(i));
  }
  // Ids() walks the in-RAM key indexes only — still the full sorted set.
  std::vector<std::string> ids = ds.Ids();
  EXPECT_EQ(ids.size(), kEntities);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

// --- cluster acceptance -----------------------------------------------------

Entity ClusterEntity(const std::string& id, const std::string& body) {
  Entity e(id, "acceptance");
  e.SetBody(body);
  return e;
}

// Kill a node and bring it back from its segments + WAL: the restarted
// cluster must answer queries identically, and the recovered shard's
// canonical snapshots must be byte-identical to the pre-crash ones.
TEST(ClusterStorageTest, CrashRestartAnswersByteIdentically) {
  ScopedTempDir dir("cluster_accept");
  Cluster cluster(3);
  Cluster::DurabilityOptions dopts;
  dopts.dir = dir.path();
  dopts.lsm.memtable_ceiling_bytes = 4096;  // force real segment traffic
  ASSERT_TRUE(cluster.EnableDurability(dopts).ok());
  const std::vector<std::string> bodies = {
      "battery life is great",      "screen has glare issues",
      "battery drains overnight",   "keyboard feels solid",
      "great value for the price",  "battery replacement was easy",
      "glare ruins outdoor use",    "solid build and great screen",
  };
  for (size_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(cluster
                    .Ingest(ClusterEntity("rev-" + std::to_string(i),
                                          bodies[i % bodies.size()]))
                    .ok());
  }
  cluster.MineAndIndexAll();
  ASSERT_TRUE(cluster.CheckpointAll().ok());

  const std::vector<std::string> terms = {"battery", "great", "glare",
                                          "solid", "screen"};
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& t : terms) {
    platform::SearchResult r = cluster.Search(t);
    ASSERT_TRUE(r.complete());
    before[t] = r.docs;
  }
  ASSERT_TRUE(cluster.Search("battery").docs.size() > 0);
  // Canonical snapshots of shard 0 before the crash.
  // (Save is a pure function of logical content, so the restarted shard —
  // whatever segment layout recovery left it with — must match exactly.)
  ASSERT_TRUE(cluster.node(0).store().Save(dir.File("before.store")).ok());
  ASSERT_TRUE(cluster.node(0).index().Save(dir.File("before.idx")).ok());

  ASSERT_TRUE(cluster.CrashNode(0).ok());
  EXPECT_FALSE(cluster.Search("battery").complete());
  ASSERT_TRUE(cluster.RestartNode(0).ok());

  for (const std::string& t : terms) {
    platform::SearchResult r = cluster.Search(t);
    EXPECT_TRUE(r.complete()) << t;
    EXPECT_EQ(r.docs, before[t]) << t;
  }
  ASSERT_TRUE(cluster.node(0).store().Save(dir.File("after.store")).ok());
  ASSERT_TRUE(cluster.node(0).index().Save(dir.File("after.idx")).ok());
  EXPECT_EQ(ReadAll(dir.File("before.store")), ReadAll(dir.File("after.store")));
  EXPECT_EQ(ReadAll(dir.File("before.idx")), ReadAll(dir.File("after.idx")));
}

}  // namespace
}  // namespace wf
