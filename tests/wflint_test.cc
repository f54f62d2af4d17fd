// Unit tests for the wflint v2 analysis engine: each rule must fire on a
// known-bad snippet, stay quiet on the idiomatic equivalent, honor the
// per-file allow() suppression, and — for the cross-file families — reason
// across more than one SourceFile. The suite ends with the fix-point test:
// the shipped tree itself must scan clean.
//
// The bad snippets live in string literals, which the engine scrubs before
// matching — so this file itself stays wflint-clean.

#include "tools/wflint/wflint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/json_checker.h"

namespace wf::tools::wflint {
namespace {

std::vector<Violation> LintFiles(const std::vector<SourceFile>& files) {
  Engine engine;
  for (const SourceFile& f : files) engine.AddFile(f);
  return engine.Run();
}

std::vector<Violation> LintSnippet(const std::string& path,
                                   const std::string& content) {
  return LintFiles({{path, content}});
}

bool HasRule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(), [&rule](const Violation& v) {
    return v.rule == rule;
  });
}

size_t CountRule(const std::vector<Violation>& vs, const std::string& rule) {
  size_t hits = 0;
  for (const Violation& v : vs) {
    if (v.rule == rule) ++hits;
  }
  return hits;
}

TEST(WflintRulesTest, EveryRuleHasIdAndSummary) {
  ASSERT_FALSE(Rules().empty());
  for (const RuleInfo& r : Rules()) {
    EXPECT_TRUE(IsKnownRule(r.id));
    EXPECT_NE(std::string(r.summary), "");
  }
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
}

// --- discarded-status -------------------------------------------------------

TEST(DiscardedStatusTest, FlagsBareCallToStatusReturningFunction) {
  const std::string src =
      "common::Status Save(const std::string& path);\n"
      "void Run() {\n"
      "  Save(\"/tmp/x\");\n"
      "}\n";
  std::vector<Violation> vs = LintSnippet("a.cc", src);
  ASSERT_TRUE(HasRule(vs, "discarded-status"));
  EXPECT_EQ(vs[0].line, 3u);
}

TEST(DiscardedStatusTest, FlagsDiscardedResultThroughReceiverChain) {
  const std::string src =
      "Result<Entity> Get(const std::string& id);\n"
      "void Run(Store* store) {\n"
      "  store->Get(\"id\");\n"
      "}\n";
  EXPECT_TRUE(HasRule(LintSnippet("a.cc", src), "discarded-status"));
}

TEST(DiscardedStatusTest, FlagsMultiLineDiscardedCall) {
  const std::string src =
      "common::Status RegisterService(const std::string& name,\n"
      "                               Handler handler);\n"
      "void Run(Bus* bus) {\n"
      "  bus->RegisterService(\"node/search\",\n"
      "                       MakeHandler());\n"
      "}\n";
  EXPECT_TRUE(HasRule(LintSnippet("a.cc", src), "discarded-status"));
}

TEST(DiscardedStatusTest, IgnoresConsumedCalls) {
  const std::string src =
      "common::Status Save(const std::string& path);\n"
      "common::Status Run() {\n"
      "  common::Status s = Save(\"/tmp/x\");\n"
      "  if (!Save(\"/tmp/y\").ok()) return s;\n"
      "  WF_RETURN_IF_ERROR(Save(\"/tmp/z\"));\n"
      "  (void)Save(\"/tmp/w\");\n"
      "  return Save(\"/tmp/v\");\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("a.cc", src), "discarded-status"));
}

TEST(DiscardedStatusTest, IgnoresCallsToNonFallibleFunctions) {
  const std::string src =
      "void Log(const std::string& msg);\n"
      "void Run() {\n"
      "  Log(\"hello\");\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("a.cc", src), "discarded-status"));
}

TEST(DiscardedStatusTest, SeesDeclarationsFromOtherFiles) {
  // Pass 1 collects fallible declarations repo-wide, so a bare call in one
  // file to a Status function declared in another still fires.
  std::vector<Violation> vs = LintFiles(
      {{"api.h",
        "#pragma once\n"
        "common::Status Flush(const std::string& path);\n"},
       {"use.cc",
        "void Run() {\n"
        "  Flush(\"/tmp/x\");\n"
        "}\n"}});
  ASSERT_TRUE(HasRule(vs, "discarded-status"));
  EXPECT_EQ(vs[0].file, "use.cc");
}

// --- raw-new / raw-delete ---------------------------------------------------

TEST(RawNewTest, FlagsPlainNewAndDelete) {
  const std::string src =
      "void Run() {\n"
      "  int* p = new int(7);\n"
      "  delete p;\n"
      "}\n";
  std::vector<Violation> vs = LintSnippet("a.cc", src);
  EXPECT_TRUE(HasRule(vs, "raw-new"));
  EXPECT_TRUE(HasRule(vs, "raw-delete"));
}

TEST(RawNewTest, AllowsStaticLeakIdiomAndDeletedFunctions) {
  const std::string src =
      "const Vocab& GetVocab() {\n"
      "  static const Vocab* kVocab = new Vocab{1, 2};\n"
      "  return *kVocab;\n"
      "}\n"
      "const Map& GetMap() {\n"
      "  static const auto* kMap =\n"
      "      new std::unordered_map<std::string, int>{{\"a\", 1}};\n"
      "  return *kMap;\n"
      "}\n"
      "struct NoCopy {\n"
      "  NoCopy(const NoCopy&) = delete;\n"
      "};\n";
  std::vector<Violation> vs = LintSnippet("a.cc", src);
  EXPECT_FALSE(HasRule(vs, "raw-new"));
  EXPECT_FALSE(HasRule(vs, "raw-delete"));
}

// --- banned-rng -------------------------------------------------------------

TEST(BannedRngTest, FlagsEveryNondeterministicSource) {
  EXPECT_TRUE(HasRule(
      LintSnippet("a.cc", "int Roll() { return rand() % 6; }\n"),
      "banned-rng"));
  EXPECT_TRUE(HasRule(
      LintSnippet("a.cc", "void Seed() { srand(42); }\n"), "banned-rng"));
  EXPECT_TRUE(HasRule(
      LintSnippet("a.cc", "std::random_device rd;\n"), "banned-rng"));
  EXPECT_TRUE(HasRule(
      LintSnippet("a.cc", "std::mt19937 engine(12345);\n"), "banned-rng"));
  EXPECT_TRUE(HasRule(
      LintSnippet("a.cc", "auto seed = time(nullptr);\n"), "banned-rng"));
}

TEST(BannedRngTest, IgnoresSeededProjectRngAndLookalikes) {
  const std::string src =
      "wf::common::Rng rng(42);\n"
      "int x = rng.Uniform(0, 6);\n"
      "int operand = 3;  // 'rand' inside a word must not fire\n"
      "double runtime = Measure();\n";
  EXPECT_FALSE(HasRule(LintSnippet("a.cc", src), "banned-rng"));
}

// --- using-namespace-header / include-guard ---------------------------------

TEST(HeaderRulesTest, FlagsUsingNamespaceInHeaderOnly) {
  const std::string src =
      "#pragma once\n"
      "using namespace std;\n";
  EXPECT_TRUE(HasRule(LintSnippet("a.h", src), "using-namespace-header"));
  // The same text in a .cc is allowed (discouraged, but not banned).
  EXPECT_FALSE(
      HasRule(LintSnippet("a.cc", "using namespace std;\n"),
              "using-namespace-header"));
}

TEST(HeaderRulesTest, RequiresPragmaOnceOrIncludeGuard) {
  EXPECT_TRUE(HasRule(LintSnippet("a.h", "struct X {};\n"),
                      "include-guard"));
  EXPECT_FALSE(HasRule(
      LintSnippet("a.h", "#pragma once\nstruct X {};\n"), "include-guard"));
  EXPECT_FALSE(HasRule(
      LintSnippet("a.h",
                  "#ifndef WF_A_H_\n#define WF_A_H_\nstruct X {};\n"
                  "#endif  // WF_A_H_\n"),
      "include-guard"));
  // An #ifndef with no matching #define is not a guard.
  EXPECT_TRUE(HasRule(
      LintSnippet("a.h", "#ifndef WF_A_H_\nstruct X {};\n#endif\n"),
      "include-guard"));
  EXPECT_FALSE(HasRule(LintSnippet("a.cc", "struct X {};\n"),
                       "include-guard"));
}

// --- float-equality ---------------------------------------------------------

TEST(FloatEqualityTest, FlagsBareFloatLiteralArguments) {
  EXPECT_TRUE(HasRule(
      LintSnippet("t.cc", "  EXPECT_EQ(c.precision(), 0.0);\n"),
      "float-equality"));
  EXPECT_TRUE(HasRule(
      LintSnippet("t.cc", "  ASSERT_EQ(1.5e-3, Compute());\n"),
      "float-equality"));
}

TEST(FloatEqualityTest, IgnoresToleranceAwareAndNonFloatCompares) {
  const std::string src =
      "  EXPECT_EQ(tokens.size(), 3u);\n"
      "  EXPECT_EQ(name, \"1,299.50\");\n"
      "  EXPECT_NEAR(c.precision(), 0.0, 1e-12);\n"
      "  EXPECT_EQ(index.Range(\"score\", 5.0, 10.0), expected);\n";
  EXPECT_FALSE(HasRule(LintSnippet("t.cc", src), "float-equality"));
}

// --- unchecked-rpc ----------------------------------------------------------

TEST(UncheckedRpcTest, FlagsDiscardedBusCallOnQueryPath) {
  const std::string src =
      "void Run(VinciBus* bus) {\n"
      "  bus->Call(\"node/0/search\", request);\n"
      "}\n";
  std::vector<Violation> vs =
      LintSnippet("src/platform/query_service.cc", src);
  ASSERT_TRUE(HasRule(vs, "unchecked-rpc"));
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(UncheckedRpcTest, FlagsDereferenceWithoutStatusCheck) {
  // Star-deref of the whole receiver chain.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/platform/cluster.cc",
                  "void Run(Cluster* c) {\n"
                  "  std::string body = *c->bus().Call(\"node/0/f\", req);\n"
                  "}\n"),
      "unchecked-rpc"));
  // Member access on the temporary Result.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/platform/query_service.cc",
                  "void Run(VinciBus* bus) {\n"
                  "  auto body = bus->Call(\"node/0/f\", req).value();\n"
                  "}\n"),
      "unchecked-rpc"));
}

TEST(UncheckedRpcTest, IgnoresCheckedCallsAssignmentsAndOtherLayers) {
  // Assign-then-check (the idiomatic shape) is quiet.
  const std::string checked =
      "void Run(Cluster* c) {\n"
      "  auto response = c->bus().Call(\"node/0/fetch\", req, opts);\n"
      "  if (!response.ok()) return;\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("src/platform/query_service.cc", checked),
                       "unchecked-rpc"));
  // Inline .ok() is quiet.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/cluster.cc",
                  "void Run(VinciBus* bus) {\n"
                  "  if (!bus->Call(\"node/0/f\", req).ok()) return;\n"
                  "}\n"),
      "unchecked-rpc"));
  // CallAll returns per-service Results the gather loop inspects.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/cluster.cc",
                  "void Run(VinciBus* bus) {\n"
                  "  auto scattered = bus->CallAll(request);\n"
                  "}\n"),
      "unchecked-rpc"));
  // Identical bad code outside query-path files belongs to other rules.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/ingest.cc",
                  "void Run(VinciBus* bus) {\n"
                  "  bus->Call(\"node/0/search\", request);\n"
                  "}\n"),
      "unchecked-rpc"));
}

// --- serving-unbounded-wait -------------------------------------------------

TEST(ServingUnboundedWaitTest, FlagsUntimedWaitSleepAndDeadlinelessCall) {
  // An untimed cv wait can park a request forever.
  std::vector<Violation> vs = LintSnippet(
      "src/serve/front_door.cc",
      "void Wait(Flight* f) {\n"
      "  std::unique_lock<common::Mutex> lock(f->mu);\n"
      "  f->cv.wait(lock);\n"
      "}\n");
  ASSERT_TRUE(HasRule(vs, "serving-unbounded-wait"));
  EXPECT_EQ(vs[0].line, 3u);
  // Sleeping a serving (caller-runs) thread stalls the caller.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/serve/front_door.cc",
                  "void Backoff() {\n"
                  "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                  "}\n"),
      "serving-unbounded-wait"));
  // A bus call with no deadline can outlive its caller's budget.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/serve/front_door.cc",
                  "void Fetch(VinciBus* bus) {\n"
                  "  auto r = bus->Call(\"node/0/fetch\", req);\n"
                  "  if (!r.ok()) return;\n"
                  "}\n"),
      "serving-unbounded-wait"));
  // So can a scatter that leaves CallAll's options at their default.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/serve/front_door.cc",
                  "void Scatter(VinciBus& bus) {\n"
                  "  auto r = bus.CallAll(\"node/\", req);\n"
                  "  Gather(r);\n"
                  "}\n"),
      "serving-unbounded-wait"));
}

TEST(ServingUnboundedWaitTest, QuietOnBoundedWaitsAndDeadlinedCalls) {
  // wait_for under a deadline chunk is the sanctioned shape.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/serve/front_door.cc",
                  "void Wait(Flight* f, const Deadline& deadline) {\n"
                  "  std::unique_lock<common::Mutex> lock(f->mu);\n"
                  "  f->cv.wait_for(lock, std::chrono::microseconds(\n"
                  "      deadline.RemainingUs()));\n"
                  "}\n"),
      "serving-unbounded-wait"));
  // A bus call that threads CallOptions (deadline) through is fine.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/serve/front_door.cc",
                  "void Fetch(VinciBus* bus, const CallOptions& options) {\n"
                  "  auto r = bus->Call(\"node/0/fetch\", req, options);\n"
                  "  if (!r.ok()) return;\n"
                  "}\n"),
      "serving-unbounded-wait"));
  // So is a hedged scatter that passes its options.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/serve/front_door.cc",
                  "void Scatter(VinciBus& bus, const CallOptions& options) {\n"
                  "  auto r = bus.CallAll(\"node/\", req, options, hedge);\n"
                  "  Gather(r);\n"
                  "}\n"),
      "serving-unbounded-wait"));
  // Identical code outside src/serve belongs to other rules.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/mine_executor.cc",
                  "void Wait(Pool* p) {\n"
                  "  std::unique_lock<common::Mutex> lock(p->mu);\n"
                  "  p->cv.wait(lock);\n"
                  "}\n"),
      "serving-unbounded-wait"));
}

// --- serving-unclamped-hedge ------------------------------------------------

TEST(ServingUnclampedHedgeTest, FlagsHedgeScheduleThatIgnoresTheDeadline) {
  // A hedge fire time computed from the latency histogram alone re-issues
  // work the caller can no longer use.
  std::vector<Violation> vs = LintSnippet(
      "src/serve/hedger.cc",
      "void Plan(Slot* s, uint64_t p95_us) {\n"
      "  s->hedge_at_us = s->start_us + p95_us;\n"
      "}\n");
  ASSERT_TRUE(HasRule(vs, "serving-unclamped-hedge"));
  EXPECT_EQ(vs[0].line, 2u);
  // The platform bus carries the same obligation.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/platform/vinci_extra.cc",
                  "void Plan(Slot* s, uint64_t p95_us) {\n"
                  "  s->reissue_delay_us = p95_us * 2;\n"
                  "}\n"),
      "serving-unclamped-hedge"));
}

TEST(ServingUnclampedHedgeTest, QuietOnClampedSchedulesAndOtherLayers) {
  // Clamping against the expiry in the same statement is the sanctioned
  // shape...
  EXPECT_FALSE(HasRule(
      LintSnippet("src/serve/hedger.cc",
                  "void Plan(Slot* s, uint64_t p95_us, uint64_t expiry_us) "
                  "{\n"
                  "  s->hedge_at_us = std::min(s->start_us + p95_us, "
                  "expiry_us);\n"
                  "}\n"),
      "serving-unclamped-hedge"));
  // ...as is an explicit deadline check in the statement.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/serve/hedger.cc",
                  "void Plan(Slot* s, uint64_t p95_us,\n"
                  "          const Deadline& deadline) {\n"
                  "  s->hedge_at_us =\n"
                  "      deadline.expired() ? 0 : s->start_us + p95_us;\n"
                  "}\n"),
      "serving-unclamped-hedge"));
  // The "never" sentinel is a plain literal init, not a schedule.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/serve/hedger.cc",
                  "void Reset(Slot* s) {\n"
                  "  s->hedge_at_us = 0;\n"
                  "}\n"),
      "serving-unclamped-hedge"));
  // Identical code outside serve/platform is not on the serving path.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/core/miner.cc",
                  "void Plan(Slot* s, uint64_t p95_us) {\n"
                  "  s->hedge_at_us = s->start_us + p95_us;\n"
                  "}\n"),
      "serving-unclamped-hedge"));
}

// --- platform-raw-timing ----------------------------------------------------

TEST(PlatformRawTimingTest, FlagsRawClockReadsInPlatformCode) {
  const std::string src =
      "void Run() {\n"
      "  auto a = std::chrono::steady_clock::now();\n"
      "  auto b = std::chrono::system_clock::now();\n"
      "  auto c = std::chrono::high_resolution_clock::now();\n"
      "}\n";
  std::vector<Violation> vs = LintSnippet("src/platform/vinci.cc", src);
  EXPECT_EQ(CountRule(vs, "platform-raw-timing"), 3u);
}

TEST(PlatformRawTimingTest, IgnoresObsTimersAndOtherLayers) {
  // The sanctioned replacements in platform code are clean.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/vinci.cc",
                  "void Run(obs::Histogram* h) {\n"
                  "  obs::ScopedTimer timer(h);\n"
                  "  uint64_t t = obs::MonotonicNowUs();\n"
                  "}\n"),
      "platform-raw-timing"));
  // The identical raw read outside platform/ (wf_obs itself, core, tests)
  // is out of scope.
  const std::string raw =
      "void Run() {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("src/obs/timer.cc", raw),
                       "platform-raw-timing"));
  EXPECT_FALSE(HasRule(LintSnippet("src/core/miner.cc", raw),
                       "platform-raw-timing"));
  // sleep_for and duration arithmetic are not clock reads.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/vinci.cc",
                  "void Run() {\n"
                  "  std::this_thread::sleep_for(\n"
                  "      std::chrono::microseconds(10));\n"
                  "}\n"),
      "platform-raw-timing"));
}

TEST(PlatformRawTimingTest, HonorsAllowSuppression) {
  const std::string src =
      "// wflint: allow(platform-raw-timing)\n"
      "void Run() {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "}\n";
  std::vector<Violation> vs = LintSnippet("src/platform/vinci.cc", src);
  EXPECT_FALSE(HasRule(vs, "platform-raw-timing"));
  // A suppression that suppressed something is not "unused".
  EXPECT_FALSE(HasRule(vs, "unused-suppression"));
}

// --- platform-raw-thread ----------------------------------------------------

TEST(PlatformRawThreadTest, FlagsRawThreadAndAsyncInPlatformAndCore) {
  const std::string src =
      "void Run() {\n"
      "  std::thread t([] {});\n"
      "  auto f = std::async(Work);\n"
      "}\n";
  std::vector<Violation> vs = LintSnippet("src/platform/cluster.cc", src);
  EXPECT_EQ(CountRule(vs, "platform-raw-thread"), 2u);
  // Core code is in scope too (miners must not spawn their own threads).
  EXPECT_TRUE(HasRule(LintSnippet("src/core/miner.cc", src),
                      "platform-raw-thread"));
}

TEST(PlatformRawThreadTest, IgnoresPoolTypesAndOtherLayers) {
  // Scheduling through the shared pool type is the sanctioned path.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/cluster.cc",
                  "void Run(MineExecutor* pool) {\n"
                  "  pool->Run(count, [&](size_t i) { Mine(i); });\n"
                  "}\n"),
      "platform-raw-thread"));
  // this_thread utilities are not thread spawns.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/vinci.cc",
                  "void Run() {\n"
                  "  std::this_thread::sleep_for(\n"
                  "      std::chrono::microseconds(10));\n"
                  "}\n"),
      "platform-raw-thread"));
  // The identical spawn outside platform/ and core/ (tests, tools, bench
  // drive concurrency however they like) is out of scope.
  const std::string raw =
      "void Run() {\n"
      "  std::thread t([] {});\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("tests/cluster_test.cc", raw),
                       "platform-raw-thread"));
  EXPECT_FALSE(HasRule(LintSnippet("bench/bench_platform_scaling.cc", raw),
                       "platform-raw-thread"));
}

TEST(PlatformRawThreadTest, HonorsAllowSuppressionForPoolImplementations) {
  // The pool implementations themselves own worker threads; they carry the
  // file-level allow() this test mirrors.
  const std::string src =
      "// wflint: allow(platform-raw-thread)\n"
      "void Start() {\n"
      "  workers_.emplace_back([this] { WorkerLoop(); });\n"
      "  std::thread t([] {});\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("src/platform/mine_executor.cc", src),
                       "platform-raw-thread"));
}

// --- platform-raw-file-io ---------------------------------------------------

TEST(PlatformRawFileIoTest, FlagsRawWritePathsInPlatformCode) {
  const std::string src =
      "void Run() {\n"
      "  std::ofstream out(path, std::ios::trunc);\n"
      "  std::fstream f(path);\n"
      "  FILE* fp = fopen(path.c_str(), \"w\");\n"
      "  fwrite(buf, 1, n, fp);\n"
      "}\n";
  std::vector<Violation> vs = LintSnippet("src/platform/data_store.cc", src);
  EXPECT_EQ(CountRule(vs, "platform-raw-file-io"), 4u);
}

TEST(PlatformRawFileIoTest, IgnoresDurableLayerReadsAndOtherLayers) {
  // The sanctioned durable-file layer calls are clean in platform code.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/data_store.cc",
                  "common::Status Run(common::StorageFaultInjector* inj) {\n"
                  "  common::DurableFile f;\n"
                  "  WF_RETURN_IF_ERROR(f.Open(path, inj));\n"
                  "  return common::WriteSnapshotFile(path, \"store\", 1,\n"
                  "                                   payload, inj);\n"
                  "}\n"),
      "platform-raw-file-io"));
  // Reads are out of scope: only the write path must be durable.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/data_store.cc",
                  "void Run() {\n"
                  "  std::ifstream in(path, std::ios::binary);\n"
                  "}\n"),
      "platform-raw-file-io"));
  // The identical raw stream outside platform/ (wf_common owns the one
  // sanctioned stream; tools and tests write freely) is out of scope.
  const std::string raw =
      "void Run() {\n"
      "  std::ofstream out(path, std::ios::trunc);\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("src/common/durable_file.cc", raw),
                       "platform-raw-file-io"));
  EXPECT_FALSE(HasRule(LintSnippet("src/tools/bench/bench_json.cc", raw),
                       "platform-raw-file-io"));
}

TEST(PlatformRawFileIoTest, CoversStoreLayerAndSkipsIncludeLines) {
  // The segment engine writes checkpoints of record; it lives under the
  // same envelope discipline as platform code.
  std::vector<Violation> vs = LintSnippet(
      "src/store/segment.cc",
      "void Run() {\n"
      "  std::ofstream out(path, std::ios::trunc);\n"
      "}\n");
  EXPECT_EQ(CountRule(vs, "platform-raw-file-io"), 1u);
  // `#include <fstream>` is how the read side names std::ifstream; the
  // include line itself is not a write.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/store/segment.h",
                  "#include <fstream>\n"
                  "void Run() {\n"
                  "  std::ifstream in(path, std::ios::binary);\n"
                  "}\n"),
      "platform-raw-file-io"));
}

TEST(PlatformRawFileIoTest, HonorsAllowSuppression) {
  const std::string src =
      "// wflint: allow(platform-raw-file-io)\n"
      "void Run() {\n"
      "  std::ofstream out(path, std::ios::trunc);\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintSnippet("src/platform/data_store.cc", src),
                       "platform-raw-file-io"));
}

// --- layering ---------------------------------------------------------------

TEST(LayeringTest, DagIsClosedAndBottomsOutAtCommon) {
  const auto& dag = LayeringDag();
  ASSERT_FALSE(dag.empty());
  // Every dependency target is itself a layer in the DAG.
  for (const auto& [layer, deps] : dag) {
    for (const std::string& dep : deps) {
      EXPECT_TRUE(dag.count(dep)) << layer << " -> " << dep;
      EXPECT_NE(dep, layer) << "self-edges are implicit";
    }
  }
  // common is the foundation: it depends on nothing.
  ASSERT_TRUE(dag.count("common"));
  EXPECT_TRUE(dag.at("common").empty());
  // platform sits above core, never the reverse.
  EXPECT_TRUE(dag.at("platform").count("core"));
  EXPECT_FALSE(dag.at("core").count("platform"));
  // The segment store sits just above the foundation: platform builds on
  // it, and it never reaches back up.
  ASSERT_TRUE(dag.count("store"));
  EXPECT_TRUE(dag.at("platform").count("store"));
  EXPECT_FALSE(dag.at("store").count("platform"));
  EXPECT_TRUE(dag.at("store").count("common"));
}

TEST(LayeringTest, StoreLayerEdges) {
  // store -> platform is an upward include.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/store/lsm.cc", "#include \"platform/cluster.h\"\n"),
      "layering"));
  // platform -> store is a DAG edge; store -> common/obs likewise.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/platform/data_store.cc", "#include \"store/lsm.h\"\n"),
      "layering"));
  EXPECT_FALSE(HasRule(
      LintSnippet("src/store/lsm.cc",
                  "#include \"common/status.h\"\n"
                  "#include \"obs/metrics.h\"\n"
                  "#include \"store/segment.h\"\n"),
      "layering"));
}

TEST(LayeringTest, FlagsUpwardInclude) {
  std::vector<Violation> vs = LintSnippet(
      "src/text/tokenizer.cc", "#include \"platform/vinci.h\"\n");
  ASSERT_TRUE(HasRule(vs, "layering"));
  EXPECT_EQ(vs[0].line, 1u);
  // Even the foundation layer reaching one level up is a finding.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/common/hash.cc", "#include \"obs/metrics.h\"\n"),
      "layering"));
}

TEST(LayeringTest, AllowsDagEdgesIntraLayerAndNonLayerIncludes) {
  const std::string src =
      "#include \"parse/chunker.h\"\n"       // intra-layer
      "#include \"text/token.h\"\n"          // DAG edge: parse -> text
      "#include \"pos/tagger.h\"\n"          // DAG edge: parse -> pos
      "#include \"gtest/gtest.h\"\n";        // not a src/ layer
  EXPECT_FALSE(HasRule(LintSnippet("src/parse/chunker.cc", src), "layering"));
  // Files outside src/ (tests, bench, examples) may include anything.
  EXPECT_FALSE(HasRule(
      LintSnippet("tests/integration_test.cc",
                  "#include \"platform/cluster.h\"\n"
                  "#include \"text/token.h\"\n"),
      "layering"));
}

// --- guarded-by / unguarded-field -------------------------------------------

TEST(GuardedByTest, FlagsUnlockedTouchAndAcceptsLockedOne) {
  const std::string src =
      "#pragma once\n"
      "class Counter {\n"
      " public:\n"
      "  void Bump() { ++count_; }\n"
      "  void SafeBump() {\n"
      "    common::MutexLock lock(mu_);\n"
      "    ++count_;\n"
      "  }\n"
      " private:\n"
      "  mutable common::Mutex mu_;\n"
      "  int count_ WF_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  std::vector<Violation> vs = LintSnippet("src/platform/counter.h", src);
  ASSERT_EQ(CountRule(vs, "guarded-by"), 1u);
  for (const Violation& v : vs) {
    if (v.rule == "guarded-by") {
      EXPECT_NE(v.message.find("Counter::Bump"), std::string::npos)
          << v.message;
    }
  }
}

TEST(GuardedByTest, AcceptsDirectLockCallsAndRequiresAnnotation) {
  const std::string src =
      "#pragma once\n"
      "class Counter {\n"
      " public:\n"
      "  void Bump() {\n"
      "    mu_.lock();\n"
      "    ++count_;\n"
      "    mu_.unlock();\n"
      "  }\n"
      "  void BumpLocked() WF_REQUIRES(mu_) { ++count_; }\n"
      " private:\n"
      "  mutable common::Mutex mu_;\n"
      "  int count_ WF_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_FALSE(
      HasRule(LintSnippet("src/platform/counter.h", src), "guarded-by"));
}

TEST(GuardedByTest, CrossFileOutOfLineDefinitionsHonorHeaderAnnotations) {
  // The header declares Append as lock-held; the out-of-line definition in
  // the .cc inherits that annotation, so only the unannotated Total fires —
  // and the finding lands on the .cc, where the touch is.
  std::vector<Violation> vs = LintFiles(
      {{"src/platform/ledger.h",
        "#pragma once\n"
        "class Ledger {\n"
        " public:\n"
        "  void Append(int v) WF_REQUIRES(mu_);\n"
        "  int Total() const;\n"
        " private:\n"
        "  mutable common::Mutex mu_;\n"
        "  std::vector<int> entries_ WF_GUARDED_BY(mu_);\n"
        "};\n"},
       {"src/platform/ledger.cc",
        "#include \"platform/ledger.h\"\n"
        "void Ledger::Append(int v) { entries_.push_back(v); }\n"
        "int Ledger::Total() const {\n"
        "  int sum = 0;\n"
        "  for (int v : entries_) sum += v;\n"
        "  return sum;\n"
        "}\n"}});
  ASSERT_EQ(CountRule(vs, "guarded-by"), 1u);
  for (const Violation& v : vs) {
    if (v.rule == "guarded-by") {
      EXPECT_EQ(v.file, "src/platform/ledger.cc");
      EXPECT_NE(v.message.find("Ledger::Total"), std::string::npos)
          << v.message;
    }
  }

  // A member function template's annotation is inherited the same way.
  EXPECT_EQ(CountRule(LintFiles({{"src/platform/walker.h",
                                  "#pragma once\n"
                                  "class Walker {\n"
                                  " private:\n"
                                  "  template <typename Fn>\n"
                                  "  void ForEachLocked(Fn&& fn) const "
                                  "WF_REQUIRES(mu_);\n"
                                  "  mutable common::Mutex mu_;\n"
                                  "  std::vector<int> items_ "
                                  "WF_GUARDED_BY(mu_);\n"
                                  "};\n"},
                                 {"src/platform/walker.cc",
                                  "#include \"platform/walker.h\"\n"
                                  "template <typename Fn>\n"
                                  "void Walker::ForEachLocked(Fn&& fn) const "
                                  "{\n"
                                  "  for (int v : items_) fn(v);\n"
                                  "}\n"}}),
                      "guarded-by"),
            0u);
}

TEST(GuardedByTest, NoThreadSafetyAnalysisOptsAFunctionOut) {
  const std::string src =
      "#pragma once\n"
      "class Pool {\n"
      " public:\n"
      "  void Drain() WF_NO_THREAD_SAFETY_ANALYSIS { queue_.clear(); }\n"
      " private:\n"
      "  common::Mutex mu_;\n"
      "  std::deque<int> queue_ WF_GUARDED_BY(mu_);\n"
      "};\n";
  EXPECT_FALSE(
      HasRule(LintSnippet("src/platform/pool.h", src), "guarded-by"));
}

TEST(UnguardedFieldTest, FlagsBareFieldAfterMutexInAnnotatedLayers) {
  const std::string src =
      "#pragma once\n"
      "class Store {\n"
      " private:\n"
      "  mutable common::Mutex mu_;\n"
      "  std::vector<int> items_;\n"
      "};\n";
  std::vector<Violation> vs = LintSnippet("src/platform/store.h", src);
  ASSERT_TRUE(HasRule(vs, "unguarded-field"));
  // The same shape outside platform/obs/core carries no lock discipline.
  EXPECT_FALSE(
      HasRule(LintSnippet("src/lexicon/store.h", src), "unguarded-field"));
}

TEST(UnguardedFieldTest, ExemptsAtomicsConstantsAndFieldsBeforeTheMutex) {
  const std::string src =
      "#pragma once\n"
      "class Store {\n"
      " private:\n"
      "  std::string path_;\n"                         // before the mutex
      "  mutable common::Mutex mu_;\n"
      "  std::atomic<uint64_t> hits_{0};\n"            // atomic: exempt
      "  std::condition_variable_any cv_;\n"           // cv: exempt
      "  const uint64_t seed_ = 42;\n"                 // immutable: exempt
      "  std::vector<int> items_ WF_GUARDED_BY(mu_);\n"
      "};\n";
  EXPECT_FALSE(
      HasRule(LintSnippet("src/obs/store.h", src), "unguarded-field"));
}

// --- unordered-serialization ------------------------------------------------

TEST(UnorderedSerializationTest, FlagsUnorderedIterationInSinkFunction) {
  const std::string src =
      "std::string ToWireCounts() {\n"
      "  std::unordered_map<std::string, int> counts = Collect();\n"
      "  std::string out;\n"
      "  for (const auto& [name, value] : counts) {\n"
      "    out += name;\n"
      "  }\n"
      "  return out;\n"
      "}\n";
  std::vector<Violation> vs = LintSnippet("src/obs/export.cc", src);
  ASSERT_TRUE(HasRule(vs, "unordered-serialization"));
}

TEST(UnorderedSerializationTest, QuietOnOrderedSortedOrNonSinkPaths) {
  // std::map iterates in key order: deterministic by construction.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/export.cc",
                  "std::string ToWireCounts() {\n"
                  "  std::map<std::string, int> counts = Collect();\n"
                  "  std::string out;\n"
                  "  for (const auto& [name, value] : counts) out += name;\n"
                  "  return out;\n"
                  "}\n"),
      "unordered-serialization"));
  // An explicit sort before emitting is the sanctioned escape hatch.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/export.cc",
                  "std::string ToWireCounts() {\n"
                  "  std::unordered_map<std::string, int> counts;\n"
                  "  std::vector<std::string> keys;\n"
                  "  for (const auto& [name, value] : counts) {\n"
                  "    keys.push_back(name);\n"
                  "  }\n"
                  "  std::sort(keys.begin(), keys.end());\n"
                  "  return keys.front();\n"
                  "}\n"),
      "unordered-serialization"));
  // Iteration that never reaches a serialization sink is free to be
  // unordered (lookups, aggregation into keyed maps, ...).
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/export.cc",
                  "int SumCounts() {\n"
                  "  std::unordered_map<std::string, int> counts;\n"
                  "  int sum = 0;\n"
                  "  for (const auto& [name, value] : counts) sum += value;\n"
                  "  return sum;\n"
                  "}\n"),
      "unordered-serialization"));
}

TEST(UnorderedSerializationTest, ReachesSinksAcrossFiles) {
  // EmitAll never names a sink itself; it calls Publish, defined in another
  // file, which calls the sink-named WriteRecord. The fixpoint over the
  // call graph still classifies EmitAll's loop as serialization-bound.
  std::vector<Violation> vs = LintFiles(
      {{"src/core/emit.cc",
        "void EmitAll() {\n"
        "  std::unordered_map<std::string, int> pending;\n"
        "  for (const auto& [key, value] : pending) {\n"
        "    Publish(key);\n"
        "  }\n"
        "}\n"},
       {"src/core/publish.cc",
        "void Publish(const std::string& key) {\n"
        "  WriteRecord(key);\n"
        "}\n"}});
  ASSERT_TRUE(HasRule(vs, "unordered-serialization"));
  for (const Violation& v : vs) {
    if (v.rule == "unordered-serialization") {
      EXPECT_EQ(v.file, "src/core/emit.cc");
    }
  }
}

// --- hot-path-alloc ---------------------------------------------------------

TEST(HotPathAllocTest, FlagsByValueStringParamInFrontHalf) {
  const std::string src =
      "std::vector<Token> Tokenize(std::string text) {\n"
      "  return {};\n"
      "}\n";
  ASSERT_TRUE(
      HasRule(LintSnippet("src/text/tokenizer.cc", src), "hot-path-alloc"));
  // Reference and view parameters are the sanctioned shapes.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/text/tokenizer.cc",
                  "std::vector<Token> Tokenize(const std::string& text);\n"
                  "std::vector<Token> Retag(std::string_view text);\n"),
      "hot-path-alloc"));
  // The same by-value copy outside src/{text,pos,parse} is out of scope.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/core/analyzer.cc", src), "hot-path-alloc"));
}

TEST(HotPathAllocTest, FlagsAllocatingSubstrButNotStringViewSlices) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/pos/tagger.cc",
                  "std::string Cut(const std::string& s) {\n"
                  "  return s.substr(1);\n"
                  "}\n"),
      "hot-path-alloc"));
  // string_view::substr is a pointer adjustment, not an allocation.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/pos/tagger.cc",
                  "std::string Cut(const std::string& s) {\n"
                  "  std::string_view v = s;\n"
                  "  return std::string(v.substr(1));\n"
                  "}\n"),
      "hot-path-alloc"));
}

TEST(HotPathAllocTest, FlagsUnreservedPushBackInLoop) {
  const std::string src =
      "std::vector<int> Collect(size_t n) {\n"
      "  std::vector<int> out;\n"
      "  for (size_t i = 0; i < n; ++i) {\n"
      "    out.push_back(static_cast<int>(i));\n"
      "  }\n"
      "  return out;\n"
      "}\n";
  ASSERT_TRUE(
      HasRule(LintSnippet("src/parse/chunker.cc", src), "hot-path-alloc"));
  // A reserve() anywhere in the function sanctions the loop.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/parse/chunker.cc",
                  "std::vector<int> Collect(size_t n) {\n"
                  "  std::vector<int> out;\n"
                  "  out.reserve(n);\n"
                  "  for (size_t i = 0; i < n; ++i) {\n"
                  "    out.push_back(static_cast<int>(i));\n"
                  "  }\n"
                  "  return out;\n"
                  "}\n"),
      "hot-path-alloc"));
  // push_back outside any loop is a one-off, not a per-element pattern.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/parse/chunker.cc",
                  "void Seed(std::vector<int>* out) {\n"
                  "  out->push_back(1);\n"
                  "}\n"),
      "hot-path-alloc"));
}

TEST(HotPathAllocTest, FlagsTokenLoopStringConstructionInParseAndCore) {
  const std::string src =
      "void Scan(const text::TokenStream& tokens) {\n"
      "  for (const text::Token& t : tokens) {\n"
      "    std::string lower = ToLower(t.text);\n"
      "    Use(lower);\n"
      "  }\n"
      "}\n";
  // The back half is covered too: parse and core iterate the same streams.
  EXPECT_TRUE(
      HasRule(LintSnippet("src/core/analyzer.cc", src), "hot-path-alloc"));
  EXPECT_TRUE(
      HasRule(LintSnippet("src/parse/chunker.cc", src), "hot-path-alloc"));
  // Layers behind the MineContext boundary are out of scope.
  EXPECT_FALSE(
      HasRule(LintSnippet("src/spot/spotter.cc", src), "hot-path-alloc"));
}

TEST(HotPathAllocTest, TokenLoopTemporaryFlaggedHoistedBufferExempt) {
  // A std::string(...) temporary per token is the same churn in disguise.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/core/analyzer.cc",
                  "void Scan(const text::TokenStream& tokens) {\n"
                  "  for (size_t i = 0; i < tokens.size(); ++i) {\n"
                  "    Use(std::string(tokens[i].text));\n"
                  "  }\n"
                  "}\n"),
      "hot-path-alloc"));
  // The sanctioned shape: buffer hoisted above the loop, reused per token.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/core/analyzer.cc",
                  "void Scan(const text::TokenStream& tokens) {\n"
                  "  std::string lower_buf;\n"
                  "  for (const text::Token& t : tokens) {\n"
                  "    Use(common::LowerInto(t.text, &lower_buf));\n"
                  "  }\n"
                  "}\n"),
      "hot-path-alloc"));
  // Loops over non-token state do not pay the per-sentence multiplier.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/core/analyzer.cc",
                  "void Load(const std::vector<Row>& rows) {\n"
                  "  for (const Row& r : rows) {\n"
                  "    std::string key = r.name;\n"
                  "    Use(key);\n"
                  "  }\n"
                  "}\n"),
      "hot-path-alloc"));
}

// --- suppressions -----------------------------------------------------------

TEST(SuppressionTest, FileLevelAllowSilencesNamedRuleOnly) {
  const std::string src =
      "// wflint: allow(banned-rng)\n"
      "std::mt19937 engine(12345);\n"
      "int* leak = new int(7);\n";
  std::vector<Violation> vs = LintSnippet("a.cc", src);
  EXPECT_FALSE(HasRule(vs, "banned-rng"));
  EXPECT_TRUE(HasRule(vs, "raw-new"));
}

TEST(SuppressionTest, AllowListTakesMultipleRules) {
  const std::string src =
      "// wflint: allow(banned-rng, raw-new)\n"
      "std::mt19937 engine(12345);\n"
      "int* leak = new int(7);\n";
  std::vector<Violation> vs = LintSnippet("a.cc", src);
  EXPECT_FALSE(HasRule(vs, "banned-rng"));
  EXPECT_FALSE(HasRule(vs, "raw-new"));
}

TEST(SuppressionTest, UnknownRuleInAllowIsItselfAViolation) {
  std::vector<Violation> vs =
      LintSnippet("a.cc", "// wflint: allow(not-a-rule)\nint x = 1;\n");
  ASSERT_TRUE(HasRule(vs, "unknown-rule"));
}

TEST(SuppressionTest, AllowThatSuppressesNothingIsUnused) {
  const std::string src =
      "// wflint: allow(banned-rng)\n"
      "int x = 1;\n";
  std::vector<Violation> vs = LintSnippet("a.cc", src);
  ASSERT_TRUE(HasRule(vs, "unused-suppression"));
  EXPECT_EQ(vs[0].line, 1u);  // reported at the allow() comment
  // The moment the rule fires (and is suppressed), the allow() is earning
  // its keep and the finding disappears.
  EXPECT_FALSE(HasRule(
      LintSnippet("a.cc",
                  "// wflint: allow(banned-rng)\n"
                  "std::mt19937 engine(12345);\n"),
      "unused-suppression"));
}

// --- scrubbing and reporting ------------------------------------------------

TEST(ScrubTest, CommentsAndStringsNeverFireRules) {
  const std::string src =
      "// rand() in a comment\n"
      "/* std::random_device in a block\n"
      "   comment spanning lines */\n"
      "const char* doc = \"call srand(1) and delete p\";\n"
      "const char* raw = R\"(new int used with mt19937)\";\n";
  EXPECT_TRUE(LintSnippet("a.cc", src).empty());
}

TEST(ReportTest, TsvReportIsSortedAndMachineReadable) {
  std::vector<Violation> vs = {
      {"b.cc", 9, "raw-new", "second"},
      {"a.cc", 3, "banned-rng", "first"},
  };
  EXPECT_EQ(FormatReport(vs),
            "a.cc\t3\tbanned-rng\tfirst\n"
            "b.cc\t9\traw-new\tsecond\n");
}

TEST(ReportTest, LintOutputIsSortedByFileLineRule) {
  const std::string src =
      "std::mt19937 b(1);\n"
      "int* p = new int(7);\n";
  std::vector<Violation> vs = LintSnippet("a.cc", src);
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].line, 1u);
  EXPECT_EQ(vs[1].line, 2u);
}

TEST(JsonReportTest, EmitsTheDocumentedSchema) {
  std::vector<Violation> vs = {
      {"b.cc", 9, "raw-new", "second"},
      {"a.cc", 3, "banned-rng", "first \"quoted\"\tand\ttabbed"},
  };
  const std::string json = FormatJsonReport(vs, 151);
  EXPECT_TRUE(wf::testing::JsonChecker::Valid(json)) << json;
  // Sorted like the TSV, with the documented top-level keys.
  EXPECT_EQ(json.find("\"version\":2"), 1u);
  EXPECT_NE(json.find("\"files_scanned\":151"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_LT(json.find("a.cc"), json.find("b.cc"));
  // Escaping survives quotes and tabs in messages.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
}

TEST(JsonReportTest, EmptyRunIsStillAValidDocument) {
  const std::string json = FormatJsonReport({}, 0);
  EXPECT_TRUE(wf::testing::JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos);
}

// --- fix-point --------------------------------------------------------------

// The rules are only trustworthy if the tree they patrol is clean: every
// finding above was either fixed or deliberately suppressed, and every
// suppression still suppresses something. A regression in either direction
// (new violation, newly stale allow()) fails here — in-process, so the
// failure message carries the violations, not just an exit code.
TEST(FixPointTest, ShippedTreeScansClean) {
  namespace fs = std::filesystem;
  const fs::path root(WF_SOURCE_DIR);
  Engine engine;
  for (const char* dir : {"src", "tests"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root / dir, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      std::ifstream in(it->path(), std::ios::binary);
      ASSERT_TRUE(in) << it->path();
      std::ostringstream buf;
      buf << in.rdbuf();
      engine.AddFile({it->path().generic_string(), buf.str()});
    }
  }
  ASSERT_GT(engine.file_count(), 100u) << "tree scan found too few files";
  std::vector<Violation> vs = engine.Run();
  for (const Violation& v : vs) {
    ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                  << v.message;
  }
  EXPECT_TRUE(vs.empty());
}

}  // namespace
}  // namespace wf::tools::wflint
