// Self-tests of the benchmark's own machinery: span self time, the
// open-loop due-time clock, and the answer gates. Exits non-zero on the
// first failed check.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gates.h"
#include "loops.h"
#include "platform/vinci.h"
#include "spans.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

wfbench::SpanRecord Span(int64_t start, int64_t end) {
  wfbench::SpanRecord s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimeWithParallelChildren() {
  const wfbench::SpanRecord parent = Span(0, 100);
  // Two workers overlap on [30, 40); a third child starts before the
  // parent; a fourth runs past its end.
  const std::vector<wfbench::SpanRecord> children = {
      Span(10, 40), Span(30, 60), Span(-5, 5), Span(90, 130)};
  // Covered: [0, 5) + [10, 60) + [90, 100) = 65, so self time is 35.
  Expect(wfbench::SelfTimeNs(parent, children) == 35,
         "self time subtracts the union of overlapping parallel children");
  Expect(wfbench::SelfTimeNs(parent, {}) == 100,
         "self time without children is the whole span");
  Expect(wfbench::SelfTimeNs(parent, {Span(0, 100), Span(20, 50)}) == 0,
         "a child covering the parent leaves no self time");
}

void TestDueTimeClock() {
  // One worker; requests due every millisecond; the first one stalls for
  // 60 ms. Every request due during the stall waits behind it, and its
  // latency must show that wait even though its own service time is ~0.
  constexpr int kRequests = 20;
  constexpr int64_t kGapNs = 1'000'000;
  constexpr int64_t kStallNs = 60'000'000;
  std::vector<int64_t> due;
  for (int i = 0; i < kRequests; ++i) due.push_back(i * kGapNs);
  std::vector<int64_t> service_ns(kRequests, 0);
  const wfbench::LoopResult result =
      wfbench::RunOpenLoop(due, 1, wfbench::Budget{1, 1},
                           [&](size_t, size_t i) {
                             const int64_t start = wfbench::NowNs();
                             if (i == 0) {
                               std::this_thread::sleep_for(
                                   std::chrono::nanoseconds(kStallNs));
                             }
                             service_ns[i] = wfbench::NowNs() - start;
                             return false;
                           });
  Expect(result.attempted == kRequests, "every scheduled request ran");
  // With one worker, replies arrive in due order.
  bool inflated = result.latency_ns.size() == kRequests;
  for (int i = 1; inflated && i < kRequests; ++i) {
    const int64_t waited_at_least = kStallNs - due[i];
    inflated = result.latency_ns[i] >= waited_at_least &&
               result.latency_ns[i] > 20 * service_ns[i] + 1'000'000;
  }
  Expect(inflated,
         "a stalled request inflates the latency of every request behind it");
  Expect(wfbench::Quantile(result.late_ns, 1.0) < kStallNs / 2,
         "the generator keeps sending on schedule during the stall");
}

void TestMineGate() {
  const wfbench::SubjectCounts offline = {{"nr70", {3, 1}}, {"exxon", {2, 2}}};
  Expect(wfbench::CheckMineAgreement(offline, offline, 0).empty(),
         "mine gate passes on agreeing counts");
  wfbench::SubjectCounts tampered = offline;
  tampered["nr70"].second += 1;
  Expect(wfbench::CheckMineAgreement(offline, tampered, 0).size() == 1,
         "mine gate fires on a tampered count");
  tampered = offline;
  tampered.erase("exxon");
  Expect(!wfbench::CheckMineAgreement(offline, tampered, 0).empty(),
         "mine gate fires on a missing subject");
  Expect(!wfbench::CheckMineAgreement(offline, offline, 1).empty(),
         "mine gate fires on a miner error");
}

void TestPayloadGate() {
  using wf::platform::EncodeMessage;
  const std::string nr70 =
      EncodeMessage({{"subject", "nr70"}, {"positive_docs", "3"},
                     {"hit", "petroleum-web-1\t+\tNR70 is great."}});
  const std::string no_hit =
      EncodeMessage({{"subject", "cold-reference"},
                     {"positive_docs", "0"},
                     {"complete", "1"}});
  const wfbench::PayloadGate gate({{"nr70", nr70}}, no_hit);
  Expect(gate.Check("nr70", nr70), "payload gate passes the reference bytes");
  std::string tampered = nr70;
  tampered[tampered.size() - 2] = '!';
  Expect(!gate.Check("nr70", tampered),
         "payload gate fires on a tampered reply");
  const std::string cold = EncodeMessage(
      {{"subject", "cold-7"}, {"positive_docs", "0"}, {"complete", "1"}});
  Expect(gate.Check("cold-7", cold),
         "payload gate passes a no-hit reply matching the template");
  const std::string cold_hit = EncodeMessage(
      {{"subject", "cold-7"}, {"positive_docs", "1"}, {"complete", "1"}});
  Expect(!gate.Check("cold-7", cold_hit),
         "payload gate fires on a no-hit subject that gained a hit");
  Expect(!gate.Check("cold-8", cold),
         "payload gate fires on a reply for another subject");
}

}  // namespace

int main() {
  TestSelfTimeWithParallelChildren();
  TestDueTimeClock();
  TestMineGate();
  TestPayloadGate();
  std::printf("%s\n", failures == 0 ? "all self-tests passed"
                                    : "self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
