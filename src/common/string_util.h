#ifndef WF_COMMON_STRING_UTIL_H_
#define WF_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wf::common {

// ASCII-only case conversion (the corpora are English ASCII text).
char ToLowerAscii(char c);
char ToUpperAscii(char c);
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

// Lowercases `s` into *buf (reusing its capacity) and returns a view of
// buf's contents. The hot-path alternative to ToLower: callers hoist one
// buffer out of their token loop and lowercase with zero steady-state
// allocations. The view is valid until buf is next modified.
std::string_view LowerInto(std::string_view s, std::string* buf);

bool IsAsciiAlpha(char c);
bool IsAsciiDigit(char c);
bool IsAsciiAlnum(char c);
bool IsAsciiSpace(char c);
bool IsAsciiUpper(char c);
bool IsAsciiLower(char c);
bool IsAsciiPunct(char c);

// True when every alphabetic character is uppercase and there is at least one.
bool IsAllUpper(std::string_view s);
// True when the first character is an uppercase letter.
bool IsCapitalized(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

std::string_view StripWhitespace(std::string_view s);

// Splits on any character in `delims`; empty pieces are dropped.
std::vector<std::string> Split(std::string_view s, std::string_view delims);
// Split without allocating: the pieces of `s` between `delim`s, empty
// pieces dropped, as views into `s`. False unless there are exactly
// out.size() pieces.
bool SplitInto(std::string_view s, char delim, std::span<std::string_view> out);
// SplitInto keeping empty pieces: exactly one `delim` between two pieces,
// so "t  12" is the three pieces "t", "", "12".
bool SplitExactInto(std::string_view s, char delim,
                    std::span<std::string_view> out);
// Parses all of `s` as an unsigned integer in `base`; false on an empty
// string, any other character, or overflow.
bool ParseUint64(std::string_view s, uint64_t* out, int base = 10);
// Splits on the exact separator string; empty pieces are kept.
std::vector<std::string> SplitExact(std::string_view s, std::string_view sep);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Replaces all occurrences of `from` (must be non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace wf::common

#endif  // WF_COMMON_STRING_UTIL_H_
