// Storage engine sweep (DESIGN.md §13, EXPERIMENTS.md E15): ingest, point
// read, sorted scan, and compaction behavior of the LSM segment store at
// 1x / 10x / 100x the seed corpus, under a fixed memtable ceiling. The
// point of the exercise is the out-of-RAM story: throughput should stay
// flat-ish while the resident delta tier stays bounded no matter how big
// the shard grows. A second sweep indexes the same entities into an
// inverted index that freezes a run every 600 docs and compacts at fanout
// 4, so index runs are written and merged at scale too.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "platform/data_store.h"
#include "platform/entity.h"
#include "platform/indexer.h"

int main() {
  using namespace wf;
  using Clock = std::chrono::steady_clock;
  const uint64_t seed = bench::BenchSeed();

  // Segment files live under the working directory for the run.
  const std::string dir = "wf_bench_storage";

  std::printf("%s", eval::Banner("Storage engine — LSM segment store at "
                                 "1x/10x/100x corpus scale")
                        .c_str());
  std::printf("Memtable ceiling fixed at 64 KiB: everything past it lives "
              "in immutable segment files, so the 100x shard runs with the "
              "same RAM budget as the 1x shard.\n\n");
  eval::TablePrinter table({"Scale", "Entities", "Ingest k/s", "Get k/s",
                            "Scan k/s", "Flushes", "Compactions", "Segments",
                            "Memtable KiB"});
  bench::BenchJsonWriter json("storage");

  // The sweep's entities: synthetic review bodies, ids hashed off the seed
  // so the sweep is reproducible.
  const auto entity = [seed](size_t i) {
    platform::Entity e(
        common::StrFormat("doc-%llu-%zu",
                          static_cast<unsigned long long>(seed), i),
        "bench");
    e.SetBody(common::StrFormat(
        "review %zu: the battery life is %s and the screen %s", i,
        i % 3 == 0 ? "great" : "poor", i % 2 == 0 ? "shines" : "glares"));
    return e;
  };

  // ~600 entities is the seed corpus's order of magnitude (E1).
  for (size_t scale : {1, 10, 100}) {
    const size_t entities = 600 * scale;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    obs::MetricsRegistry metrics;
    platform::DataStore ds;
    ds.AttachMetrics(&metrics);
    store::LsmOptions opts;
    opts.memtable_ceiling_bytes = 64 << 10;
    WF_CHECK_OK(ds.EnableSegments(dir, "shard", opts));

    auto t0 = Clock::now();
    for (size_t i = 0; i < entities; ++i) WF_CHECK_OK(ds.Upsert(entity(i)));
    auto t1 = Clock::now();

    // Point reads: a strided sweep touching every tier.
    size_t reads = 0;
    auto t2 = Clock::now();
    for (size_t i = 0; i < entities; i += 3) {
      auto got = ds.Get(common::StrFormat(
          "doc-%llu-%zu", static_cast<unsigned long long>(seed), i));
      WF_CHECK_OK(got.status());
      ++reads;
    }
    auto t3 = Clock::now();

    // Sorted scan: the merged sweep mining runs on.
    size_t scanned = 0;
    auto t4 = Clock::now();
    ds.ForEach([&scanned](const platform::Entity&) { ++scanned; });
    auto t5 = Clock::now();
    WF_CHECK(scanned == entities);

    const double ingest_s = std::chrono::duration<double>(t1 - t0).count();
    const double get_s = std::chrono::duration<double>(t3 - t2).count();
    const double scan_s = std::chrono::duration<double>(t5 - t4).count();
    const double ingest_kps = entities / ingest_s / 1000.0;
    const double get_kps = reads / get_s / 1000.0;
    const double scan_kps = scanned / scan_s / 1000.0;

    table.AddRow({common::StrFormat("%zux", scale),
                  std::to_string(entities),
                  common::StrFormat("%.1f", ingest_kps),
                  common::StrFormat("%.1f", get_kps),
                  common::StrFormat("%.1f", scan_kps),
                  std::to_string(ds.flushes()),
                  std::to_string(ds.compactions()),
                  std::to_string(ds.segment_count()),
                  common::StrFormat("%.1f", ds.memtable_bytes() / 1024.0)});
    json.AddRow(
        "scale_sweep",
        {bench::Int("scale", scale), bench::Int("entities", entities),
         bench::Num("ingest_kps", ingest_kps), bench::Num("get_kps", get_kps),
         bench::Num("scan_kps", scan_kps), bench::Int("flushes", ds.flushes()),
         bench::Int("compactions", ds.compactions()),
         bench::Int("segments", ds.segment_count()),
         bench::Int("memtable_bytes", ds.memtable_bytes()),
         bench::Int("memtable_ceiling_bytes", opts.memtable_ceiling_bytes)});
    json.AddSnapshot("metrics", metrics.Snapshot());
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf("Flushes grow with the corpus while the memtable stays under "
              "its ceiling; compaction keeps the segment count sublinear in "
              "the flush count (size-tiered merging).\n\n");

  // Index runs: the same entities, a freeze every 600 docs (a checkpoint's
  // worth), size-tiered compaction at fanout 4. Freeze time includes the
  // compactions a freeze triggers.
  constexpr size_t kDocsPerFreeze = 600;
  eval::TablePrinter itable({"Scale", "Entities", "Freezes", "Compactions",
                             "Runs", "Freeze us/doc"});
  for (size_t scale : {1, 10, 100}) {
    const size_t entities = 600 * scale;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    obs::MetricsRegistry metrics;
    platform::InvertedIndex index;
    index.AttachMetrics(&metrics);
    WF_CHECK_OK(index.EnableSegments(dir, "index", nullptr,
                                     /*compaction_fanout=*/4));
    double freeze_s = 0.0;
    for (size_t i = 0; i < entities; ++i) {
      index.IndexEntity(entity(i));
      if ((i + 1) % kDocsPerFreeze == 0) {
        auto f0 = Clock::now();
        WF_CHECK_OK(index.Freeze());
        freeze_s += std::chrono::duration<double>(Clock::now() - f0).count();
      }
    }
    WF_CHECK(index.document_count() == entities);
    const obs::MetricsSnapshot snapshot = metrics.Snapshot();
    const uint64_t freezes = snapshot.CounterValue("index/freezes_total");
    const uint64_t compactions =
        snapshot.CounterValue("index/compactions_total");
    const size_t runs = index.frozen_segment_count();
    const double freeze_us_per_doc = 1e6 * freeze_s / entities;
    itable.AddRow({common::StrFormat("%zux", scale), std::to_string(entities),
                   std::to_string(freezes), std::to_string(compactions),
                   std::to_string(runs),
                   common::StrFormat("%.2f", freeze_us_per_doc)});
    json.AddRow("index_sweep",
                {bench::Int("scale", scale), bench::Int("entities", entities),
                 bench::Int("freezes", freezes),
                 bench::Int("compactions", compactions),
                 bench::Int("runs", runs),
                 bench::Num("freeze_us_per_doc", freeze_us_per_doc),
                 bench::Int("bytes_written",
                            snapshot.CounterValue("index/bytes_written_total"))});
  }
  std::printf("%s\n", itable.ToString().c_str());
  std::printf("Every freeze writes one run and every compaction merges four "
              "same-tier runs into one, term by term, so the run count "
              "stays logarithmic in the freezes.\n");
  const std::string path = json.WriteFile();
  if (!path.empty()) std::printf("JSON: %s\n", path.c_str());
  std::filesystem::remove_all(dir);
  return 0;
}
