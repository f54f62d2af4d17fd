// Durability layer tests: the storage fault injector, the durable-file
// primitives, the checksummed snapshot envelope, the write-ahead log (with
// a truncate-at-every-byte replay fuzz), and node-level checkpoint/recover.
// The cluster-wide kill → degrade → recover → heal story lives in
// chaos_test.cc.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <latch>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/durable_file.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "platform/cluster.h"
#include "platform/entity.h"
#include "platform/wal.h"

namespace wf {
namespace {

using ::wf::common::DurableFile;
using ::wf::common::StorageFaultInjector;
using ::wf::platform::Cluster;
using ::wf::platform::ClusterNode;
using ::wf::platform::Entity;
using ::wf::platform::WriteAheadLog;

// A fresh directory under /tmp, removed on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_("/tmp/wf_durability_" + name) {
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

Entity MakeEntity(const std::string& id) {
  Entity e(id, "test");
  e.SetBody("body of " + id + " with battery words");
  return e;
}

// --- StorageFaultInjector ---------------------------------------------------

TEST(StorageFaultInjectorTest, VerdictStreamIsAPureFunctionOfSeedAndPath) {
  StorageFaultInjector::Policy policy;
  policy.fail_probability = 0.3;
  policy.torn_probability = 0.3;
  policy.bitflip_probability = 0.3;

  auto run = [&policy](uint64_t seed) {
    StorageFaultInjector injector(seed);
    injector.SetPolicy("/data/", policy);
    std::vector<int> verdicts;
    for (int i = 0; i < 64; ++i) {
      verdicts.push_back(static_cast<int>(
          injector.DecideAppend("/data/node-0.wal", 100).action));
    }
    return verdicts;
  };
  EXPECT_EQ(run(7), run(7));  // same seed: byte-identical chaos
  EXPECT_NE(run(7), run(8));  // different seed: different weather
}

TEST(StorageFaultInjectorTest, VerdictsPerPathIgnoreInterleaving) {
  // The k-th append to a path gets the same verdict no matter how appends
  // to other paths interleave — this is what makes threaded chaos replay.
  StorageFaultInjector::Policy policy;
  policy.fail_probability = 0.5;

  StorageFaultInjector alone(99);
  alone.SetPolicy("/d/", policy);
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    expected.push_back(
        static_cast<int>(alone.DecideAppend("/d/a.wal", 10).action));
  }

  StorageFaultInjector interleaved(99);
  interleaved.SetPolicy("/d/", policy);
  std::vector<int> got;
  for (int i = 0; i < 32; ++i) {
    (void)interleaved.DecideAppend("/d/b.wal", 10);  // noise on another path
    got.push_back(
        static_cast<int>(interleaved.DecideAppend("/d/a.wal", 10).action));
    (void)interleaved.DecideAppend("/d/c.wal", 10);
  }
  EXPECT_EQ(got, expected);
}

TEST(StorageFaultInjectorTest, ArmedCrashFiresOnceThenPathStaysDown) {
  StorageFaultInjector injector(1);
  injector.ArmCrash("/d/node-1", /*after_appends=*/2, /*torn_bytes=*/3);

  using Action = StorageFaultInjector::Decision::Action;
  EXPECT_EQ(injector.DecideAppend("/d/node-1.wal", 10).action,
            Action::kWrite);
  EXPECT_EQ(injector.DecideAppend("/d/node-1.wal", 10).action,
            Action::kWrite);
  StorageFaultInjector::Decision crash =
      injector.DecideAppend("/d/node-1.wal", 10);
  EXPECT_EQ(crash.action, Action::kTorn);
  EXPECT_EQ(crash.torn_bytes, 3u);
  // Power is off: everything on the prefix fails, other paths are fine.
  EXPECT_EQ(injector.DecideAppend("/d/node-1.wal", 10).action,
            Action::kFail);
  EXPECT_TRUE(injector.IsCrashed("/d/node-1.store"));
  EXPECT_FALSE(injector.CheckWritable("/d/node-1.store").ok());
  EXPECT_EQ(injector.DecideAppend("/d/node-2.wal", 10).action,
            Action::kWrite);
  // Power restored.
  injector.ClearCrashes();
  EXPECT_FALSE(injector.IsCrashed("/d/node-1.store"));
  EXPECT_EQ(injector.DecideAppend("/d/node-1.wal", 10).action,
            Action::kWrite);
}

// --- DurableFile ------------------------------------------------------------

TEST(DurableFileTest, FailedAppendLeavesNoBytes) {
  ScopedTempDir dir("fail");
  StorageFaultInjector injector(1);
  StorageFaultInjector::Policy policy;
  policy.fail_probability = 1.0;
  injector.SetPolicy(dir.path(), policy);

  DurableFile file;
  ASSERT_TRUE(file.Open(dir.File("a.log"), &injector).ok());
  EXPECT_EQ(file.Append("hello").code(), common::StatusCode::kIOError);
  EXPECT_EQ(file.size(), 0u);
  EXPECT_EQ(ReadAll(dir.File("a.log")), "");
}

TEST(DurableFileTest, TornAppendLeavesAStrictPrefixOnDisk) {
  ScopedTempDir dir("torn");
  StorageFaultInjector injector(1);
  injector.ArmCrash(dir.path(), /*after_appends=*/0, /*torn_bytes=*/4);

  DurableFile file;
  ASSERT_TRUE(file.Open(dir.File("a.log"), &injector).ok());
  EXPECT_EQ(file.Append("abcdefgh").code(), common::StatusCode::kIOError);
  // The prefix really landed — that is the torn tail recovery must detect.
  EXPECT_EQ(ReadAll(dir.File("a.log")), "abcd");
}

TEST(DurableFileTest, BitFlipReturnsOkButCorruptsTheRecord) {
  ScopedTempDir dir("flip");
  StorageFaultInjector injector(1);
  StorageFaultInjector::Policy policy;
  policy.bitflip_probability = 1.0;
  injector.SetPolicy(dir.path(), policy);

  DurableFile file;
  ASSERT_TRUE(file.Open(dir.File("a.log"), &injector).ok());
  // The writer is told Ok: media corruption is invisible to it.
  ASSERT_TRUE(file.Append("hello world").ok());
  std::string on_disk = ReadAll(dir.File("a.log"));
  ASSERT_EQ(on_disk.size(), 11u);
  size_t diffs = 0;
  for (size_t i = 0; i < on_disk.size(); ++i) {
    if (on_disk[i] != "hello world"[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
}

TEST(WriteFileAtomicTest, CrashedPathRefusesAndPreservesOldFile) {
  ScopedTempDir dir("atomic");
  StorageFaultInjector injector(1);
  const std::string path = dir.File("snap");
  ASSERT_TRUE(common::WriteFileAtomic(path, "old good data", &injector).ok());

  // Fire the armed crash, then try to replace the file.
  injector.ArmCrash(dir.path(), /*after_appends=*/0, /*torn_bytes=*/1);
  DurableFile trigger;
  ASSERT_TRUE(trigger.Open(dir.File("w.log"), &injector).ok());
  EXPECT_FALSE(trigger.Append("x").ok());

  EXPECT_EQ(common::WriteFileAtomic(path, "new data", &injector).code(),
            common::StatusCode::kIOError);
  EXPECT_EQ(ReadAll(path), "old good data");

  injector.ClearCrashes();
  ASSERT_TRUE(common::WriteFileAtomic(path, "new data", &injector).ok());
  EXPECT_EQ(ReadAll(path), "new data");
}

// --- Snapshot envelope ------------------------------------------------------

TEST(SnapshotEnvelopeTest, RoundTripAndKindVersionChecks) {
  ScopedTempDir dir("envelope");
  const std::string path = dir.File("snap");
  const std::string payload = "entity records go here";
  ASSERT_TRUE(common::WriteSnapshotFile(path, "store", 1, payload).ok());

  auto read = common::ReadSnapshotFile(path, "store", 1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);

  EXPECT_EQ(common::ReadSnapshotFile(path, "index", 1).status().code(),
            common::StatusCode::kCorruption);
  EXPECT_EQ(common::ReadSnapshotFile(path, "store", 2).status().code(),
            common::StatusCode::kCorruption);
  EXPECT_EQ(common::ReadSnapshotFile(dir.File("absent"), "store", 1)
                .status()
                .code(),
            common::StatusCode::kIOError);
}

// A payload handed over in parts lands as the same file as the joined
// payload: one header over the whole, the parts in order.
TEST(SnapshotEnvelopeTest, PartsWriteTheSameFileAsOnePayload) {
  ScopedTempDir dir("parts");
  const std::string whole = dir.File("whole");
  const std::string split = dir.File("split");
  ASSERT_TRUE(
      common::WriteSnapshotFile(whole, "indexseg", 1, "head\nbody-a|b").ok());
  const std::vector<std::string_view> parts = {"head\n", "", "body-a", "|b"};
  ASSERT_TRUE(common::WriteSnapshotFile(split, "indexseg", 1, parts).ok());
  EXPECT_EQ(ReadAll(split), ReadAll(whole));
  auto read = common::ReadSnapshotFile(split, "indexseg", 1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), "head\nbody-a|b");
}

TEST(SnapshotEnvelopeTest, FlippingAnySingleByteIsRejected) {
  ScopedTempDir dir("flipany");
  const std::string path = dir.File("snap");
  ASSERT_TRUE(
      common::WriteSnapshotFile(path, "store", 1, "payload bytes").ok());
  const std::string good = ReadAll(path);
  ASSERT_FALSE(good.empty());

  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] ^= 0x01;
    // Raw stream on purpose: the test simulates the corruption itself.
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bad;
    out.close();
    auto read = common::ReadSnapshotFile(path, "store", 1);
    EXPECT_FALSE(read.ok()) << "flip at byte " << i << " was accepted";
    EXPECT_EQ(read.status().code(), common::StatusCode::kCorruption)
        << "flip at byte " << i;
  }
}

// --- WriteAheadLog ----------------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  ScopedTempDir dir("wal_roundtrip");
  const std::string path = dir.File("a.wal");
  std::vector<std::string> records = {
      "plain record",
      "",  // empty record is legal
      "payload with\nnewlines\nand rec 9 tokens",
      std::string("\0binary\x01\x02", 9),
  };
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    for (const std::string& r : records) ASSERT_TRUE(wal.Append(r).ok());
    EXPECT_EQ(wal.appended_records(), records.size());
  }
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records, records);
  EXPECT_FALSE(replay.value().torn_tail);

  // A missing file is an empty log, not an error.
  auto empty = WriteAheadLog::Replay(dir.File("absent.wal"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().records.empty());
  EXPECT_FALSE(empty.value().torn_tail);
}

TEST(WalTest, ReopenedLogKeepsAppending) {
  ScopedTempDir dir("wal_reopen");
  const std::string path = dir.File("a.wal");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append("first").ok());
  }
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append("second").ok());
  }
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records,
            (std::vector<std::string>{"first", "second"}));
}

// The property fuzz: truncate the log at EVERY byte offset. Recovery must
// never crash, never lose a record whose full frame is on disk, and never
// resurrect a partially written one.
TEST(WalTest, TruncationAtEveryByteOffsetReplaysExactlyTheFullFrames) {
  ScopedTempDir dir("wal_fuzz");
  const std::string path = dir.File("a.wal");
  // Adversarial payloads: frame-like text, newlines, binary, empties.
  std::vector<std::string> records = {
      "alpha", "", "rec 5 0000000000000000\nfake", "with\nnewline",
      std::string("\x00\x01\x02", 3), "tail-record",
  };
  std::vector<uint64_t> boundaries;  // acked_bytes after each append
  uint64_t header_end = 0;
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    header_end = wal.acked_bytes();  // just the 8-byte header
    for (const std::string& r : records) {
      ASSERT_TRUE(wal.Append(r).ok());
      boundaries.push_back(wal.acked_bytes());
    }
  }
  const std::string full = ReadAll(path);
  ASSERT_EQ(full.size(), boundaries.back());

  const std::string probe = dir.File("probe.wal");
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    // Raw stream on purpose: the test simulates the torn file itself.
    {
      std::ofstream out(probe, std::ios::trunc | std::ios::binary);
      out << full.substr(0, cut);
    }
    auto replay_or = WriteAheadLog::Replay(probe);
    ASSERT_TRUE(replay_or.ok()) << "cut at " << cut;
    const WriteAheadLog::ReplayResult& replay = replay_or.value();

    if (cut == 0) {
      // Empty file: a log that was never written.
      EXPECT_TRUE(replay.records.empty()) << "cut at " << cut;
      EXPECT_FALSE(replay.torn_tail) << "cut at " << cut;
      continue;
    }
    // Full frames on disk at this cut = boundaries at or below it.
    size_t expect_count = 0;
    uint64_t expect_valid = header_end;
    for (uint64_t b : boundaries) {
      if (b <= cut) {
        ++expect_count;
        expect_valid = b;
      }
    }
    if (cut < header_end) expect_valid = 0;  // torn mid-header
    ASSERT_EQ(replay.records.size(), expect_count) << "cut at " << cut;
    for (size_t i = 0; i < expect_count; ++i) {
      EXPECT_EQ(replay.records[i], records[i]) << "cut at " << cut;
    }
    // Torn exactly when the cut is not on a record (or header) boundary.
    bool on_boundary = cut == header_end;
    for (uint64_t b : boundaries) on_boundary = on_boundary || cut == b;
    EXPECT_EQ(replay.torn_tail, !on_boundary) << "cut at " << cut;
    EXPECT_EQ(replay.valid_bytes, expect_valid) << "cut at " << cut;
  }
}

TEST(WalTest, TornAppendPoisonsTheLogUntilReset) {
  ScopedTempDir dir("wal_poison");
  StorageFaultInjector injector(1);
  const std::string path = dir.File("a.wal");

  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path, &injector).ok());
  ASSERT_TRUE(wal.Append("good").ok());

  // Tear mid-frame (10 bytes of the frame land), then restore power.
  injector.ArmCrash(dir.path(), /*after_appends=*/0, /*torn_bytes=*/10);
  EXPECT_EQ(wal.Append("lost-record").code(), common::StatusCode::kIOError);
  injector.ClearCrashes();

  // Appending behind an unverifiable tail would be silently dropped by
  // Replay — the log refuses until recovery truncates it.
  EXPECT_EQ(wal.Append("after").code(), common::StatusCode::kIOError);

  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records, (std::vector<std::string>{"good"}));
  EXPECT_TRUE(replay.value().torn_tail);

  ASSERT_TRUE(wal.Reset().ok());
  ASSERT_TRUE(wal.Append("after").ok());
  auto after = WriteAheadLog::Replay(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().records, (std::vector<std::string>{"after"}));
  EXPECT_FALSE(after.value().torn_tail);
}

TEST(WalTest, BitFlippedRecordStopsReplayAtTheFlip) {
  ScopedTempDir dir("wal_bitrot");
  StorageFaultInjector injector(1);
  const std::string path = dir.File("a.wal");

  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path, &injector).ok());
  ASSERT_TRUE(wal.Append("intact").ok());

  StorageFaultInjector::Policy policy;
  policy.bitflip_probability = 1.0;
  injector.SetPolicy(dir.path(), policy);
  ASSERT_TRUE(wal.Append("rotten").ok());  // writer cannot tell
  injector.ClearAllPolicies();

  // The checksum catches the rot; nothing after the bad record is trusted.
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records, (std::vector<std::string>{"intact"}));
  EXPECT_TRUE(replay.value().torn_tail);
}

// A frame line claiming a length near 2^64: the payload cannot fit in the
// file, so the frame is a torn tail. The bound must not wrap around and
// let the checksum read far past the end of the log.
TEST(WalTest, OverlongFrameLengthIsATornTail) {
  ScopedTempDir dir("wal_overlong");
  const std::string path = dir.File("a.wal");
  {
    // Raw stream on purpose: the test writes the bad frame itself.
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "wfwal 1\nrec 18446744073709551615 0000000000000000\n";
  }
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay.value().records.empty());
  EXPECT_TRUE(replay.value().torn_tail);
  EXPECT_EQ(replay.value().valid_bytes, 8u);
}

// --- ClusterNode durability -------------------------------------------------

TEST(ClusterNodeDurabilityTest, RecoverReplaysWalOnTopOfCheckpoint) {
  ScopedTempDir dir("node_recover");
  {
    ClusterNode node(0);
    ASSERT_TRUE(node.EnableDurability(dir.path()).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(node.Ingest(MakeEntity(common::StrFormat("e%d", i))).ok());
    }
    node.MineAndIndex();  // so the index snapshot covers e0..e2
    ASSERT_TRUE(node.Checkpoint().ok());  // e0..e2 now in the snapshot
    for (int i = 3; i < 5; ++i) {
      ASSERT_TRUE(node.Ingest(MakeEntity(common::StrFormat("e%d", i))).ok());
    }
    // e3, e4 live only in the WAL; the node dies here.
  }
  ClusterNode revived(0);
  ASSERT_TRUE(revived.EnableDurability(dir.path()).ok());
  ASSERT_TRUE(revived.Recover().ok());
  EXPECT_EQ(revived.store().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(revived.store().Contains(common::StrFormat("e%d", i)));
  }
  // Replayed entities are searchable without a re-mine.
  EXPECT_EQ(revived.index().Term("battery").size(), 5u);
  obs::MetricsSnapshot snapshot = revived.metrics().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("wal/replayed_records_total"), 2u);
  EXPECT_EQ(snapshot.CounterValue("wal/torn_tail_detected_total"), 0u);
  // Recovery compacted: a third incarnation replays nothing.
  ClusterNode third(0);
  ASSERT_TRUE(third.EnableDurability(dir.path()).ok());
  ASSERT_TRUE(third.Recover().ok());
  EXPECT_EQ(third.store().size(), 5u);
  EXPECT_EQ(third.metrics().Snapshot().CounterValue(
                "wal/replayed_records_total"),
            0u);
}

TEST(ClusterNodeDurabilityTest, UnackedWriteIsNeitherStoredNorRecovered) {
  ScopedTempDir dir("node_unacked");
  StorageFaultInjector injector(1);
  {
    ClusterNode node(0);
    ASSERT_TRUE(node.EnableDurability(dir.path(), &injector).ok());
    ASSERT_TRUE(node.Ingest(MakeEntity("acked")).ok());
    // The next WAL append tears mid-frame: the write must not be acked,
    // and the store must not accept it.
    injector.ArmCrash(dir.path(), /*after_appends=*/0, /*torn_bytes=*/7);
    EXPECT_EQ(node.Ingest(MakeEntity("lost")).code(),
              common::StatusCode::kIOError);
    EXPECT_FALSE(node.store().Contains("lost"));
    EXPECT_EQ(node.metrics()
                  .Snapshot()
                  .CounterValue("wal/append_failures_total"),
              1u);
    // The byte counter holds the acked frames: the log less its 8-byte
    // header and the 7 torn bytes.
    EXPECT_EQ(node.metrics().Snapshot().CounterValue(
                  "wal/bytes_written_total"),
              std::filesystem::file_size(dir.File("node-0.wal")) - 8 - 7);
  }
  injector.ClearCrashes();
  ClusterNode revived(0);
  ASSERT_TRUE(revived.EnableDurability(dir.path(), &injector).ok());
  ASSERT_TRUE(revived.Recover().ok());
  // Exactly the acked record came back; the torn one was detected, not
  // resurrected.
  EXPECT_EQ(revived.store().size(), 1u);
  EXPECT_TRUE(revived.store().Contains("acked"));
  obs::MetricsSnapshot snapshot = revived.metrics().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("wal/replayed_records_total"), 1u);
  EXPECT_EQ(snapshot.CounterValue("wal/torn_tail_detected_total"), 1u);
}

TEST(ClusterNodeDurabilityTest, AutoCheckpointEveryNAppends) {
  ScopedTempDir dir("node_autockpt");
  ClusterNode node(0);
  ASSERT_TRUE(node.EnableDurability(dir.path(), nullptr,
                                    /*checkpoint_every_appends=*/2)
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(node.Ingest(MakeEntity(common::StrFormat("e%d", i))).ok());
  }
  // Appends 2 and 4 triggered checkpoints (plus the one Recover would do);
  // only e4 is still WAL-resident.
  EXPECT_EQ(node.metrics().Snapshot().CounterValue("wal/checkpoints_total"),
            2u);
  auto replay = WriteAheadLog::Replay(dir.File("node-0.wal"));
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  auto last = Entity::DecodeRecord(replay.value().records[0]);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().id(), "e4");
}

// Two ingests of one id race from two threads: exactly one is acked, only
// its record reaches the WAL, and a restart recovers the acked body, never
// the refused one.
TEST(ClusterNodeDurabilityTest, RacingDuplicateIngestLogsOnlyTheAckedRecord) {
  for (int trial = 0; trial < 200; ++trial) {
    ScopedTempDir dir("racing_duplicate");
    const std::string bodies[2] = {"first body", "second body"};
    common::Status results[2];
    {
      ClusterNode node(0);
      ASSERT_TRUE(node.EnableDurability(dir.path()).ok());
      std::latch start(2);
      auto ingest = [&](int which) {
        Entity e("dup", "test");
        e.SetBody(bodies[which]);
        start.arrive_and_wait();
        results[which] = node.Ingest(std::move(e));
      };
      std::thread first(ingest, 0);
      std::thread second(ingest, 1);
      first.join();
      second.join();
      ASSERT_NE(results[0].ok(), results[1].ok())
          << "trial " << trial << ": " << results[0].ToString() << " / "
          << results[1].ToString();
      for (const common::Status& s : results) {
        if (!s.ok()) {
          EXPECT_EQ(s.code(), common::StatusCode::kAlreadyExists) << trial;
        }
      }
      ASSERT_EQ(node.metrics().Snapshot().CounterValue("wal/appends_total"),
                1u)
          << "trial " << trial;
    }
    const std::string& acked = bodies[results[0].ok() ? 0 : 1];
    ClusterNode revived(0);
    ASSERT_TRUE(revived.EnableDurability(dir.path()).ok());
    ASSERT_TRUE(revived.Recover().ok());
    auto entity = revived.store().Get("dup");
    ASSERT_TRUE(entity.ok()) << "trial " << trial;
    ASSERT_EQ(entity->body(), acked) << "trial " << trial;
  }
}

TEST(ClusterDurabilityTest, WholeClusterRestartsFromItsDirectory) {
  ScopedTempDir dir("cluster_restart");
  std::vector<std::string> ids = {"d1", "d2", "d3", "d4", "d5", "d6", "d7"};
  {
    Cluster cluster(3);
    ASSERT_TRUE(cluster.EnableDurability({dir.path(), 0}).ok());
    for (const std::string& id : ids) {
      ASSERT_TRUE(cluster.Ingest(MakeEntity(id)).ok());
    }
    cluster.MineAndIndexAll();  // index the shards before the checkpoint
    ASSERT_TRUE(cluster.CheckpointAll().ok());
  }
  Cluster restarted(3);
  ASSERT_TRUE(restarted.EnableDurability({dir.path(), 0}).ok());
  EXPECT_EQ(restarted.TotalEntities(), ids.size());
  // No re-mine needed: the index shards came back from their snapshots.
  platform::SearchResult result = restarted.Search("battery");
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.docs.size(), ids.size());
}

// A durability directory spelled with a trailing "/" must not make the
// restarted node's orphan sweep delete the runs its checkpoint committed.
TEST(ClusterDurabilityTest, RestartFromATrailingSlashDirKeepsTheCheckpoint) {
  ScopedTempDir dir("cluster_trailing_slash");
  std::vector<std::string> ids = {"d1", "d2", "d3", "d4", "d5", "d6"};
  Cluster cluster(2);
  ASSERT_TRUE(cluster.EnableDurability({dir.path() + "/", 0}).ok());
  for (const std::string& id : ids) {
    ASSERT_TRUE(cluster.Ingest(MakeEntity(id)).ok());
  }
  cluster.MineAndIndexAll();
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  const std::vector<std::string> before = cluster.Search("battery").docs;
  ASSERT_EQ(before.size(), ids.size());

  ASSERT_TRUE(cluster.CrashNode(0).ok());
  ASSERT_TRUE(cluster.RestartNode(0).ok());
  EXPECT_EQ(cluster.TotalEntities(), ids.size());
  platform::SearchResult after = cluster.Search("battery");
  EXPECT_TRUE(after.complete());
  EXPECT_EQ(after.docs, before);
  for (const std::string& id : ids) {
    EXPECT_TRUE(cluster.node(0).store().Get(id).ok() ||
                cluster.node(1).store().Get(id).ok())
        << id;
  }
}

TEST(ClusterDurabilityTest, EnablingWithANodeDownFailsAndChangesNothing) {
  ScopedTempDir dir("cluster_node_down");
  Cluster cluster(2);
  ASSERT_TRUE(cluster.CrashNode(1).ok());  // allowed on a non-durable cluster
  common::Status s = cluster.EnableDurability({dir.path(), 0});
  EXPECT_EQ(s.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("node 1"), std::string::npos) << s.ToString();
  // The live node was left alone, and the cluster is still not durable, so
  // there is nothing to restart the crashed node from.
  EXPECT_FALSE(cluster.node(0).durable());
  EXPECT_EQ(cluster.RestartNode(1).code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(ClusterDurabilityTest, CorruptCheckpointSurfacesAsCorruption) {
  ScopedTempDir dir("cluster_corrupt");
  {
    ClusterNode node(0);
    ASSERT_TRUE(node.EnableDurability(dir.path()).ok());
    ASSERT_TRUE(node.Ingest(MakeEntity("a")).ok());
    ASSERT_TRUE(node.Checkpoint().ok());
  }
  // Flip one payload byte of the checkpointed store segment.
  std::string seg = ReadAll(dir.File("node-0.store-1.wfseg"));
  ASSERT_FALSE(seg.empty());
  seg[seg.size() - 1] ^= 0x01;
  {
    // Raw stream on purpose: the test simulates the corruption itself.
    std::ofstream out(dir.File("node-0.store-1.wfseg"),
                      std::ios::trunc | std::ios::binary);
    out << seg;
  }
  // Segment tiers load when durability is enabled, so the corruption
  // surfaces there — before the node ever serves a query.
  ClusterNode revived(0);
  EXPECT_EQ(revived.EnableDurability(dir.path()).code(),
            common::StatusCode::kCorruption);
}

}  // namespace
}  // namespace wf
