#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace wf::common {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing doc");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing doc");
  EXPECT_EQ(s.ToString(), "NotFound: missing doc");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::IOError("x"));
}

TEST(StatusTest, AllCodeNamesDistinct) {
  std::set<std::string> names;
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    names.insert(StatusCodeName(static_cast<StatusCode>(c)));
  }
  EXPECT_EQ(names.size(),
            static_cast<size_t>(StatusCode::kUnimplemented) + 1);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailingHelper() { return Status::IOError("disk"); }

Status UsesReturnIfError() {
  WF_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kIOError);
}

Result<int> GiveSeven() { return 7; }

Status UsesAssignOrReturn(int* out) {
  WF_ASSIGN_OR_RETURN(int v, GiveSeven());
  *out = v;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnAssigns) {
  int out = 0;
  ASSERT_TRUE(UsesAssignOrReturn(&out).ok());
  EXPECT_EQ(out, 7);
}

// --- String utilities ----------------------------------------------------------

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("Hello World!"), "hello world!");
  EXPECT_EQ(ToUpper("Hello World!"), "HELLO WORLD!");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, CharClasses) {
  EXPECT_TRUE(IsAsciiAlpha('a'));
  EXPECT_TRUE(IsAsciiAlpha('Z'));
  EXPECT_FALSE(IsAsciiAlpha('1'));
  EXPECT_TRUE(IsAsciiDigit('0'));
  EXPECT_TRUE(IsAsciiSpace('\t'));
  EXPECT_TRUE(IsAsciiPunct('.'));
  EXPECT_FALSE(IsAsciiPunct('a'));
}

TEST(StringUtilTest, Capitalization) {
  EXPECT_TRUE(IsCapitalized("Sony"));
  EXPECT_FALSE(IsCapitalized("sony"));
  EXPECT_FALSE(IsCapitalized(""));
  EXPECT_TRUE(IsAllUpper("NR70"));
  EXPECT_TRUE(IsAllUpper("SUN"));
  EXPECT_FALSE(IsAllUpper("Sun"));
  EXPECT_FALSE(IsAllUpper("1234"));  // no alphabetic character
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("sentiment", "sent"));
  EXPECT_FALSE(StartsWith("sent", "sentiment"));
  EXPECT_TRUE(EndsWith("mining", "ing"));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("NR70", "nr70"));
  EXPECT_FALSE(EqualsIgnoreCase("NR70", "nr7"));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(Split("a,,b, c", ", "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(Split("", ",").empty());
  EXPECT_TRUE(Split(",,,", ",").empty());
}

TEST(StringUtilTest, SplitIntoMatchesSplitWithoutAllocating) {
  std::string_view parts[3];
  ASSERT_TRUE(SplitInto("t  word 12", ' ', parts));
  EXPECT_EQ(parts[0], "t");
  EXPECT_EQ(parts[1], "word");
  EXPECT_EQ(parts[2], "12");
  EXPECT_FALSE(SplitInto("t word", ' ', parts));
  EXPECT_FALSE(SplitInto("t word 12 extra", ' ', parts));
  EXPECT_FALSE(SplitInto("", ' ', parts));
}

TEST(StringUtilTest, ParseUint64TakesTheWholeString) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseUint64("00ff", &v, 16));
  EXPECT_EQ(v, 255u);
  for (const char* bad : {"", "+1", "-1", " 1", "1x", "0x1f",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUint64(bad, &v)) << bad;
  }
}

TEST(StringUtilTest, SplitExactKeepsEmptyPieces) {
  EXPECT_EQ(SplitExact("a||b", "|"),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitExact("abc", "|"), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, JoinRoundTripsSplitExact) {
  std::vector<std::string> parts{"x", "", "yz", "w"};
  EXPECT_EQ(SplitExact(Join(parts, "|"), "|"), parts);
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("nothing", "x", "y"), "nothing");
  EXPECT_EQ(ReplaceAll("overlap", "", "y"), "overlap");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

// --- Rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform(0, 1 << 30) == b.Uniform(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedRespectsZeroWeight) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.Weighted({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(RngTest, WeightedDistribution) {
  Rng rng(7);
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.Weighted({1.0, 3.0})];
  }
  EXPECT_NEAR(counts[1] / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // Child stream differs from a fresh Rng(5) stream.
  Rng fresh(5);
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (child.Uniform(0, 1 << 30) != fresh.Uniform(0, 1 << 30)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

// --- Hash ----------------------------------------------------------------------

TEST(HashTest, Fnv1a64KnownValues) {
  // FNV-1a published test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, Fnv1a64ContinuesAcrossParts) {
  EXPECT_EQ(Fnv1a64("ab", Fnv1a64("wfsnap ")), Fnv1a64("wfsnap ab"));
  EXPECT_EQ(Fnv1a64("", Fnv1a64("x")), Fnv1a64("x"));
}

TEST(HashTest, Fnv1a64Distinguishes) {
  EXPECT_NE(Fnv1a64("doc-1"), Fnv1a64("doc-2"));
  EXPECT_EQ(Fnv1a64("stable"), Fnv1a64("stable"));
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// --- Arena ---------------------------------------------------------------------

TEST(ArenaTest, AllocRespectsAlignment) {
  Arena arena;
  // Interleave odd sizes with strict alignments; every pointer must land
  // on its requested boundary.
  for (size_t align : {1ul, 2ul, 4ul, 8ul, 16ul, 64ul}) {
    for (size_t size : {1ul, 3ul, 7ul, 24ul, 129ul}) {
      void* p = arena.Alloc(size, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "size=" << size << " align=" << align;
    }
  }
}

TEST(ArenaTest, BlocksGrowGeometricallyAndOversizedGetOwnBlock) {
  Arena arena;
  arena.Alloc(16);
  EXPECT_EQ(arena.block_count(), 1u);
  size_t first_reserved = arena.bytes_reserved();
  // Filling past the first block grows the reservation, not one block
  // per allocation.
  while (arena.block_count() == 1) arena.Alloc(512);
  EXPECT_GT(arena.bytes_reserved(), first_reserved);
  // A request larger than the max block size is still served.
  void* big = arena.Alloc(1 << 20);
  ASSERT_NE(big, nullptr);
}

TEST(ArenaTest, ResetKeepsLargestBlockForReuse) {
  Arena arena;
  // Force several blocks, including a big one.
  for (int i = 0; i < 100; ++i) arena.Alloc(1024);
  size_t reserved_before = arena.bytes_reserved();
  ASSERT_GT(arena.block_count(), 1u);
  // wflint: allow(discarded-status) — Arena::Reset returns void; the rule
  // matches it by name against WriteAheadLog::Reset, which returns Status.
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_LT(arena.bytes_reserved(), reserved_before);
  // Steady state: a reused arena whose largest block covers the document
  // never asks malloc again.
  size_t reserved_after_reset = arena.bytes_reserved();
  for (int i = 0; i < 10; ++i) arena.Alloc(1024);
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_reset);
}

TEST(ArenaTest, CopyStringIsStableAndIndependent) {
  Arena arena;
  std::string source = "the battery life";
  std::string_view copy = arena.CopyString(source);
  EXPECT_EQ(copy, source);
  EXPECT_NE(copy.data(), source.data());
  // Mutating the source cannot reach the arena copy (lifetime of views is
  // tied to the artifact that owns the arena, not the input buffer).
  source[0] = 'X';
  EXPECT_EQ(copy, "the battery life");
  // Zero-length copies are valid, distinct views.
  EXPECT_EQ(arena.CopyString("").size(), 0u);
}

TEST(StringInternerTest, DedupsEqualStringsToOneCopy) {
  Arena arena;
  StringInterner interner(&arena);
  std::string_view a = interner.Intern("battery");
  std::string_view b = interner.Intern(std::string("battery"));
  std::string_view c = interner.Intern("zoom");
  EXPECT_EQ(a, "battery");
  EXPECT_EQ(a.data(), b.data());  // one arena copy shared
  EXPECT_NE(a.data(), c.data());
  EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInternerTest, InternLowerFoldsCaseBeforeDedup) {
  Arena arena;
  StringInterner interner(&arena);
  std::string_view a = interner.InternLower("Battery");
  std::string_view b = interner.InternLower("BATTERY");
  EXPECT_EQ(a, "battery");
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInternerTest, ViewsSurviveSourceDeath) {
  Arena arena;
  StringInterner interner(&arena);
  std::string_view view;
  {
    std::string ephemeral = "short-lived token text";
    view = interner.Intern(ephemeral);
  }
  // The interned bytes live in the arena, not the dead source string.
  std::vector<std::string> churn(64, std::string(64, 'x'));  // stomp heap
  EXPECT_EQ(view, "short-lived token text");
}

}  // namespace
}  // namespace wf::common
