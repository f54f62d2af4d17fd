#include "common/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace wf::common {

char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

char ToUpperAscii(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ToLowerAscii(c);
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ToUpperAscii(c);
  return out;
}

std::string_view LowerInto(std::string_view s, std::string* buf) {
  buf->assign(s);
  for (char& c : *buf) c = ToLowerAscii(c);
  return *buf;
}

bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

bool IsAsciiAlnum(char c) { return IsAsciiAlpha(c) || IsAsciiDigit(c); }

bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

bool IsAsciiUpper(char c) { return c >= 'A' && c <= 'Z'; }

bool IsAsciiLower(char c) { return c >= 'a' && c <= 'z'; }

bool IsAsciiPunct(char c) {
  return c > ' ' && c < 0x7f && !IsAsciiAlnum(c);
}

bool IsAllUpper(std::string_view s) {
  bool saw_alpha = false;
  for (char c : s) {
    if (IsAsciiAlpha(c)) {
      if (!IsAsciiUpper(c)) return false;
      saw_alpha = true;
    }
  }
  return saw_alpha;
}

bool IsCapitalized(std::string_view s) {
  return !s.empty() && IsAsciiUpper(s[0]);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerAscii(a[i]) != ToLowerAscii(b[i])) return false;
  }
  return true;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsAsciiSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

namespace {

bool SplitIntoPieces(std::string_view s, char delim, bool keep_empty,
                     std::span<std::string_view> out) {
  size_t n = 0;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      if (keep_empty || i > start) {
        if (n == out.size()) return false;
        out[n++] = s.substr(start, i - start);
      }
      start = i + 1;
    }
  }
  return n == out.size();
}

}  // namespace

bool SplitInto(std::string_view s, char delim,
               std::span<std::string_view> out) {
  return SplitIntoPieces(s, delim, /*keep_empty=*/false, out);
}

bool SplitExactInto(std::string_view s, char delim,
                    std::span<std::string_view> out) {
  return SplitIntoPieces(s, delim, /*keep_empty=*/true, out);
}

bool ParseUint64(std::string_view s, uint64_t* out, int base) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out, base);
  return !s.empty() && ec == std::errc() && ptr == end;
}

std::vector<std::string> SplitExact(std::string_view s, std::string_view sep) {
  std::vector<std::string> out;
  if (sep.empty()) {
    out.emplace_back(s);
    return out;
  }
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + sep.size();
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace wf::common
