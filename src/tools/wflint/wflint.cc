#include "tools/wflint/wflint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <regex>
#include <sstream>

namespace wf::tools::wflint {

namespace {

// --- Source scrubbing -------------------------------------------------------
//
// Every rule except suppression parsing runs over a "scrubbed" copy of the
// file: comments and the contents of string/char literals are replaced by
// spaces, byte for byte, so line/column structure survives but banned
// tokens inside prose or test fixtures cannot fire rules.

enum class ScrubState {
  kCode,
  kLineComment,
  kBlockComment,
  kString,
  kChar,
  kRawString,
};

// `keep_comments` blanks only literals (used for suppression parsing, so an
// allow() directive quoted inside a string — e.g. in wflint's own tests —
// does not count as a real suppression).
std::string Scrub(const std::string& in, bool keep_comments = false) {
  std::string out = in;
  ScrubState state = ScrubState::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case ScrubState::kCode:
        if (c == '/' && next == '/') {
          state = ScrubState::kLineComment;
          if (!keep_comments) out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = ScrubState::kBlockComment;
          if (!keep_comments) out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   in[i - 1])) &&
                               in[i - 1] != '_'))) {
          size_t paren = in.find('(', i + 2);
          if (paren == std::string::npos) break;  // malformed; give up
          raw_delim = ")";
          raw_delim.append(in, i + 2, paren - i - 2);
          raw_delim += '"';
          state = ScrubState::kRawString;
          i = paren;  // keep prefix; contents get blanked below
        } else if (c == '"') {
          state = ScrubState::kString;
        } else if (c == '\'') {
          state = ScrubState::kChar;
        }
        break;
      case ScrubState::kLineComment:
        if (c == '\n') {
          state = ScrubState::kCode;
        } else if (!keep_comments) {
          out[i] = ' ';
        }
        break;
      case ScrubState::kBlockComment:
        if (c == '*' && next == '/') {
          if (!keep_comments) out[i] = out[i + 1] = ' ';
          ++i;
          state = ScrubState::kCode;
        } else if (c != '\n' && !keep_comments) {
          out[i] = ' ';
        }
        break;
      case ScrubState::kString:
      case ScrubState::kChar: {
        char quote = state == ScrubState::kString ? '"' : '\'';
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == quote) {
          state = ScrubState::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
      case ScrubState::kRawString:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = ScrubState::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(std::move(cur));
  return lines;
}

bool IsHeaderPath(const std::string& path) {
  auto ends_with = [&path](const char* suffix) {
    size_t n = std::char_traits<char>::length(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  return ends_with(".h") || ends_with(".hpp");
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// True if `tok` occurs in `s` as a whole identifier token.
bool HasToken(const std::string& s, const std::string& tok) {
  size_t pos = 0;
  while ((pos = s.find(tok, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(s[pos - 1]);
    size_t end = pos + tok.size();
    bool right_ok = end >= s.size() || !IsIdentChar(s[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Position of the first whole-token occurrence, or npos.
size_t FindToken(const std::string& s, const std::string& tok) {
  size_t pos = 0;
  while ((pos = s.find(tok, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(s[pos - 1]);
    size_t end = pos + tok.size();
    bool right_ok = end >= s.size() || !IsIdentChar(s[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

// Index of the ')' matching the '(' at `open`, or npos.
size_t MatchParen(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

// Index just past the '>' matching the '<' at `open`, or npos.
size_t SkipAngles(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

// Removes balanced <...> groups so `(` detection and token extraction are
// not confused by template argument lists.
std::string StripAngleGroups(const std::string& s) {
  std::string out;
  int depth = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '<') {
      ++depth;
      continue;
    }
    if (c == '>') {
      if (depth > 0) {
        --depth;
        continue;
      }
    }
    if (depth == 0) out += c;
  }
  return out;
}

std::string LastIdentifier(const std::string& s) {
  size_t end = s.find_last_not_of(" \t");
  while (end != std::string::npos) {
    if (IsIdentChar(s[end])) {
      size_t b = end;
      while (b > 0 && IsIdentChar(s[b - 1])) --b;
      if (!std::isdigit(static_cast<unsigned char>(s[b]))) {
        return s.substr(b, end - b + 1);
      }
      end = b == 0 ? std::string::npos : s.find_last_not_of(" \t", b - 1);
    } else {
      end = end == 0 ? std::string::npos : s.find_last_not_of(" \t", end - 1);
      break;  // only skip trailing whitespace/digits, not arbitrary junk
    }
  }
  return "";
}

// --- Suppressions -----------------------------------------------------------

// Parses `// wflint: allow(<rule>, <rule>)` comments from the raw source.
// Tokens that do not lex as rule ids ([a-z0-9-]+) are ignored (so docs can
// show placeholder syntax); tokens that lex but name no rule are reported.
struct Suppressions {
  std::map<std::string, size_t> allowed;  // rule id -> 1-based line
  std::vector<Violation> unknown;
};

Suppressions ParseSuppressions(const std::string& path,
                               const std::vector<std::string>& raw_lines) {
  static const std::regex kAllowRe(R"(//\s*wflint:\s*allow\(([^)]*)\))");
  static const std::regex kRuleTokenRe("^[a-z][a-z0-9-]*$");
  Suppressions out;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    std::smatch m;
    std::string rest = raw_lines[i];
    while (std::regex_search(rest, m, kAllowRe)) {
      std::stringstream list(m[1].str());
      std::string token;
      while (std::getline(list, token, ',')) {
        token = Trim(token);
        if (token.empty()) continue;
        if (!std::regex_match(token, kRuleTokenRe)) continue;
        if (IsKnownRule(token)) {
          out.allowed.emplace(token, i + 1);
        } else {
          out.unknown.push_back({path, i + 1, "unknown-rule",
                                 "allow() names unknown rule '" + token +
                                     "'; see wflint --list-rules"});
        }
      }
      rest = m.suffix();
    }
  }
  return out;
}

// --- Statement scanning helpers ---------------------------------------------

// Accumulates one statement starting at scrubbed line `start`: text up to
// the first `;` at zero (){}[] depth, spanning at most `max_lines` lines.
// Returns empty string if no such terminator is found (not a statement we
// can reason about).
std::string AccumulateStatement(const std::vector<std::string>& lines,
                                size_t start, size_t max_lines = 12) {
  std::string text;
  int depth = 0;
  for (size_t i = start; i < lines.size() && i < start + max_lines; ++i) {
    for (char c : lines[i]) {
      text += c;
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ';' && depth == 0) return text;
    }
    text += ' ';
  }
  return "";
}

// True if `stmt` contains an assignment `=` at zero bracket depth (skipping
// ==, !=, <=, >=, and compound assignments, all of which still mean the
// value is consumed).
bool HasTopLevelAssignment(const std::string& stmt) {
  int depth = 0;
  for (size_t i = 0; i < stmt.size(); ++i) {
    char c = stmt[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (depth != 0 || c != '=') continue;
    char prev = i > 0 ? stmt[i - 1] : '\0';
    char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
    if (next == '=' || prev == '=' || prev == '!' || prev == '<' ||
        prev == '>' || prev == '+' || prev == '-' || prev == '*' ||
        prev == '/' || prev == '%' || prev == '&' || prev == '|' ||
        prev == '^') {
      if (prev == '=') continue;  // second char of ==
      if (next == '=') {          // first char of a two-char operator
        ++i;
        continue;
      }
      continue;
    }
    return true;
  }
  return false;
}

// Splits the argument list of the first top-level macro/function call in
// `stmt` after position `open_paren` into top-level arguments.
std::vector<std::string> SplitTopLevelArgs(const std::string& stmt,
                                           size_t open_paren) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  for (size_t i = open_paren; i < stmt.size(); ++i) {
    char c = stmt[i];
    if (c == '(' || c == '[' || c == '{') {
      if (depth > 0) cur += c;
      ++depth;
      continue;
    }
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) break;
      cur += c;
      continue;
    }
    if (c == ',' && depth == 1) {
      args.push_back(cur);
      cur.clear();
      continue;
    }
    if (depth >= 1) cur += c;
  }
  if (!cur.empty()) args.push_back(cur);
  return args;
}

}  // namespace

// --- Pass-1 model -----------------------------------------------------------

namespace {

struct FieldInfo {
  std::string name;
  std::string guard;  // WF_GUARDED_BY/WF_PT_GUARDED_BY argument, or empty
  size_t line = 0;
  bool unordered = false;    // declared as std::unordered_{map,set}
  bool exempt = false;       // atomic/const/static/cv: no guard expected
  bool after_mutex = false;  // declared after the class's first mutex member
};

struct FnAnnotation {
  std::set<std::string> requires_held;  // WF_REQUIRES(...) mutex names
  bool no_analysis = false;             // WF_NO_THREAD_SAFETY_ANALYSIS

  void MergeFrom(const FnAnnotation& o) {
    requires_held.insert(o.requires_held.begin(), o.requires_held.end());
    no_analysis = no_analysis || o.no_analysis;
  }
};

struct ClassModel {
  std::string name;
  std::string enclosing;             // enclosing class name, "" at top level
  std::vector<std::string> mutexes;  // mutex-typed member names, decl order
  std::vector<FieldInfo> fields;
  // Annotations found on member function *declarations* (the body may live
  // in another file; Clang puts the attribute on the declaration).
  std::map<std::string, FnAnnotation> fn_annotations;
};

struct FunctionModel {
  std::string class_name;  // enclosing class or out-of-line qualifier, or ""
  std::string name;        // "~Foo" for destructors
  std::string header;      // scrubbed declaration text before the open brace
  std::string body;        // scrubbed body text, braces excluded
  size_t line = 0;             // 1-based line where the declaration starts
  size_t body_start_line = 0;  // 1-based line of the opening brace
  FnAnnotation annotation;
  std::set<std::string> callees;           // bare callee names in the body
  std::set<std::string> unordered_vars;    // unordered-typed params + locals
  std::set<std::string> string_view_vars;  // string_view params + locals
};

struct IncludeEdge {
  std::string target;  // the quoted include path
  size_t line = 0;
};

}  // namespace

struct FileModel {
  SourceFile file;
  std::string layer;  // directory component after src/, or ""
  bool is_header = false;
  std::vector<std::string> lines;          // scrubbed
  std::vector<std::string> comment_lines;  // scrubbed, comments kept
  std::vector<IncludeEdge> includes;
  std::vector<ClassModel> classes;
  std::vector<FunctionModel> functions;
  Suppressions suppressions;
};

namespace {

std::string LayerOf(const std::string& path) {
  size_t src = 0;
  if (path.compare(0, 4, "src/") == 0) {
    src = 4;
  } else {
    size_t p = path.find("/src/");
    if (p == std::string::npos) return "";
    src = p + 5;
  }
  size_t slash = path.find('/', src);
  if (slash == std::string::npos) return "";
  return path.substr(src, slash - src);
}

// Extracts WF_* annotation macros from `text` (erasing them in place so
// later name/type extraction is not confused) and reports what they said.
FnAnnotation ExtractAnnotations(std::string* text, std::string* guard_out) {
  static const std::regex kWfRe(R"((WF_[A-Z0-9_]+)\s*(\(([^()]*)\))?)");
  FnAnnotation ann;
  std::string& t = *text;
  std::smatch m;
  std::string scanned;
  while (std::regex_search(t, m, kWfRe)) {
    const std::string macro = m[1].str();
    const std::string arg = Trim(m[3].str());
    if (macro == "WF_GUARDED_BY" || macro == "WF_PT_GUARDED_BY") {
      if (guard_out) *guard_out = arg;
    } else if (macro == "WF_REQUIRES") {
      for (const std::string& a : SplitTopLevelArgs("(" + arg + ")", 0)) {
        std::string name = LastIdentifier(Trim(a));
        if (!name.empty()) ann.requires_held.insert(name);
      }
    } else if (macro == "WF_NO_THREAD_SAFETY_ANALYSIS") {
      ann.no_analysis = true;
    }
    scanned += m.prefix().str() + " ";
    t = m.suffix().str();
  }
  t = scanned + t;
  return ann;
}

void ParseMemberDecl(const std::string& raw, size_t line, ClassModel* cls) {
  static const std::regex kAccessRe(
      R"(^\s*((public|private|protected)\s*:\s*)+)");
  static const std::regex kSkipRe(
      R"(^(friend|using|typedef|static_assert|enum)\b)");
  static const std::regex kClassHeadRe(R"(^(class|struct|union)\b)");
  static const std::regex kMutexTypeRe(
      R"(\b(mutex|shared_mutex|recursive_mutex|Mutex)\b)");
  static const std::regex kExemptRe(
      R"(\b(atomic|atomic_flag|condition_variable|condition_variable_any|once_flag)\b)");
  static const std::regex kImmutableRe(R"(^\s*(const|constexpr|static)\b)");

  std::string t = Trim(std::regex_replace(raw, kAccessRe, ""));
  // A member template declares what follows its parameter list: parse
  // that, so a function template's annotations reach its definition. A
  // nested class template's forward declaration declares no member.
  if (t.compare(0, 8, "template") == 0) {
    const size_t lt = t.find('<');
    const size_t past = lt == std::string::npos ? lt : SkipAngles(t, lt);
    if (past == std::string::npos) return;
    t = Trim(t.substr(past));
    if (std::regex_search(t, kClassHeadRe)) return;
  }
  if (t.empty() || std::regex_search(t, kSkipRe)) return;

  std::string guard;
  FnAnnotation ann = ExtractAnnotations(&t, &guard);

  // Cut default member initializers / `= default` / `= delete`.
  int depth = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    char c = t[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (depth == 0 && c == '=') {
      char prev = i > 0 ? t[i - 1] : '\0';
      char next = i + 1 < t.size() ? t[i + 1] : '\0';
      if (prev != '=' && prev != '!' && prev != '<' && prev != '>' &&
          next != '=') {
        t = t.substr(0, i);
        break;
      }
    }
  }
  // Brace initializers were normalized to "{}" by the scanner; drop them.
  for (size_t p; (p = t.find("{}")) != std::string::npos;) t.erase(p, 2);
  // Drop array extents so `Stripe stripes_[kStripes]` names `stripes_`.
  for (size_t p; (p = t.find('[')) != std::string::npos;) {
    size_t q = t.find(']', p);
    if (q == std::string::npos) break;
    t.erase(p, q - p + 1);
  }

  std::string flat = StripAngleGroups(t);
  size_t open = flat.find('(');
  if (open != std::string::npos) {
    // A member function declaration. Record its thread-safety annotations
    // under the class so the out-of-line definition inherits them.
    std::string name = LastIdentifier(flat.substr(0, open));
    if (!name.empty() && (ann.no_analysis || !ann.requires_held.empty())) {
      cls->fn_annotations[name].MergeFrom(ann);
    }
    return;
  }

  std::string name = LastIdentifier(flat);
  if (name.empty()) return;
  if (std::regex_search(t, kMutexTypeRe)) {
    cls->mutexes.push_back(name);
    return;
  }
  FieldInfo f;
  f.name = name;
  f.guard = LastIdentifier(guard);
  f.line = line;
  f.unordered = t.find("unordered_map") != std::string::npos ||
                t.find("unordered_set") != std::string::npos;
  f.exempt =
      std::regex_search(t, kExemptRe) || std::regex_search(t, kImmutableRe);
  f.after_mutex = !cls->mutexes.empty();
  cls->fields.push_back(std::move(f));
}

bool IsControlKeyword(const std::string& name) {
  static const std::set<std::string>* kKeywords = new std::set<std::string>{
      "if",     "for",    "while",  "switch",   "catch",         "return",
      "sizeof", "new",    "delete", "else",     "do",            "try",
      "throw",  "assert", "defined", "noexcept", "static_assert", "alignof",
      "decltype"};
  return kKeywords->count(name) > 0;
}

struct FnHeader {
  bool ok = false;
  std::string class_name;
  std::string name;
};

// Decides whether the text accumulated before a `{` is a function
// definition header, and if so which (class, name) it defines.
FnHeader ParseFunctionHeader(const std::string& pending) {
  FnHeader out;
  std::string t = Trim(pending);
  if (t.compare(0, 8, "template") == 0) {
    size_t lt = t.find('<');
    if (lt == std::string::npos) return out;
    size_t past = SkipAngles(t, lt);
    if (past == std::string::npos) return out;
    t = Trim(t.substr(past));
  }
  if (t.find("operator") != std::string::npos) return out;

  // First '(' at zero ()[]{}-depth; a top-level '=' before it means this is
  // a variable initializer, not a function.
  int depth = 0;
  size_t open = std::string::npos;
  for (size_t i = 0; i < t.size(); ++i) {
    char c = t[i];
    if (depth == 0 && c == '=') {
      char prev = i > 0 ? t[i - 1] : '\0';
      char next = i + 1 < t.size() ? t[i + 1] : '\0';
      if (prev != '=' && prev != '!' && prev != '<' && prev != '>' &&
          next != '=') {
        return out;
      }
    }
    if (c == '(') {
      if (depth == 0) {
        open = i;
        break;
      }
      ++depth;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
    }
  }
  if (open == std::string::npos) return out;

  size_t e = open;
  while (e > 0 && std::isspace(static_cast<unsigned char>(t[e - 1]))) --e;
  size_t b = e;
  while (b > 0 && IsIdentChar(t[b - 1])) --b;
  if (b == e) return out;
  out.name = t.substr(b, e - b);
  if (IsControlKeyword(out.name)) return out;
  if (b > 0 && t[b - 1] == '~') {
    out.name = "~" + out.name;
    --b;
  }
  if (b >= 2 && t[b - 1] == ':' && t[b - 2] == ':') {
    size_t qe = b - 2;
    // The qualifier may carry template args (Foo<T>::bar); skip them.
    if (qe > 0 && t[qe - 1] == '>') {
      int ad = 0;
      while (qe > 0) {
        if (t[qe - 1] == '>') ++ad;
        if (t[qe - 1] == '<' && --ad == 0) {
          --qe;
          break;
        }
        --qe;
      }
    }
    size_t qb = qe;
    while (qb > 0 && IsIdentChar(t[qb - 1])) --qb;
    out.class_name = t.substr(qb, qe - qb);
  }
  out.ok = true;
  return out;
}

// True if the last meaningful token before the `{` can precede a function
// body: `)` or one of the trailing qualifiers. A bare identifier before the
// brace means a member-init or aggregate brace instead.
bool TailAllowsFunctionBody(const std::string& pending) {
  std::string t = Trim(pending);
  if (t.empty()) return false;
  if (t.back() == ')') return true;
  size_t e = t.size();
  size_t b = e;
  while (b > 0 && IsIdentChar(t[b - 1])) --b;
  std::string last = t.substr(b, e - b);
  static const std::set<std::string>* kTail = new std::set<std::string>{
      "const", "noexcept", "override", "final", "try",
      "WF_NO_THREAD_SAFETY_ANALYSIS"};
  return kTail->count(last) > 0;
}

void CollectVarDecls(const std::string& text, FunctionModel* fn) {
  for (size_t pos = 0;;) {
    size_t p = text.find("unordered_", pos);
    if (p == std::string::npos) break;
    size_t lt = text.find('<', p);
    if (lt == std::string::npos) break;
    size_t past = SkipAngles(text, lt);
    if (past == std::string::npos) {
      pos = p + 10;
      continue;
    }
    size_t r = past;
    while (r < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[r])) ||
            text[r] == '&' || text[r] == '*')) {
      ++r;
    }
    size_t b = r;
    while (r < text.size() && IsIdentChar(text[r])) ++r;
    if (r > b) fn->unordered_vars.insert(text.substr(b, r - b));
    pos = past;
  }
  static const std::regex kSvRe(R"(string_view\s*[&*]?\s+([A-Za-z_]\w*))");
  auto begin = std::sregex_iterator(text.begin(), text.end(), kSvRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    fn->string_view_vars.insert((*it)[1].str());
  }
}

void CollectCallees(const std::string& body, FunctionModel* fn) {
  static const std::regex kCallRe(R"(([A-Za-z_]\w*)\s*\()");
  auto begin = std::sregex_iterator(body.begin(), body.end(), kCallRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string name = (*it)[1].str();
    if (!IsControlKeyword(name)) fn->callees.insert(name);
  }
}

// The scanner: walks the scrubbed file once, maintaining a namespace/class
// scope stack, classifying the text accumulated since the last `{` `}` `;`
// whenever a `{` opens, and fast-forwarding over function bodies (their
// insides are modeled as text, not scopes).
class ModelBuilder {
 public:
  explicit ModelBuilder(FileModel* model) : model_(model) {}

  void Build(const std::string& scrubbed) {
    const std::string& s = scrubbed;
    for (size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      if (c == '\n') {
        ++line_;
        line_has_code_ = false;
        pending_ += ' ';
        continue;
      }
      if (c == '#' && !line_has_code_) {
        // Preprocessor directive: consume to end of line (honoring
        // backslash continuations); keep it out of the statement stream.
        while (i < s.size() && s[i] != '\n') {
          if (s[i] == '\\' && i + 1 < s.size() && s[i + 1] == '\n') {
            ++line_;
            ++i;
          }
          ++i;
        }
        if (i < s.size()) {
          ++line_;
          line_has_code_ = false;
        }
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(c))) {
        line_has_code_ = true;
        if (Trim(pending_).empty()) pending_line_ = line_;
      }
      if (c == '{') {
        OnOpenBrace(s, &i);
        continue;
      }
      if (c == '}') {
        if (!scopes_.empty()) scopes_.pop_back();
        pending_.clear();
        continue;
      }
      if (c == ';') {
        if (!scopes_.empty() && scopes_.back().is_class) {
          ParseMemberDecl(pending_, pending_line_,
                          &model_->classes[scopes_.back().class_index]);
        }
        pending_.clear();
        continue;
      }
      pending_ += c;
    }
  }

 private:
  struct Scope {
    bool is_class = false;
    int class_index = -1;
  };

  static bool LooksLikeClassHead(const std::string& pending) {
    static const std::regex kClassRe(R"((^|[^\w])(class|struct)\s)");
    static const std::regex kEnumRe(R"((^|[^\w])enum\s)");
    return std::regex_search(pending, kClassRe) &&
           !std::regex_search(pending, kEnumRe);
  }

  std::string ClassNameFrom(const std::string& pending) {
    static const std::regex kHeadRe(R"((^|[^\w])(class|struct)\s)");
    std::smatch m;
    std::string t = pending;
    std::string tail;
    while (std::regex_search(t, m, kHeadRe)) {
      tail = m.suffix().str();
      t = tail;
    }
    ExtractAnnotations(&tail, nullptr);  // drop WF_CAPABILITY(...) etc.
    static const std::regex kAttrRe(R"(alignas\s*\([^()]*\))");
    tail = std::regex_replace(tail, kAttrRe, " ");
    // Cut the base clause: the first ':' that is not part of '::'.
    for (size_t i = 0; i < tail.size(); ++i) {
      if (tail[i] != ':') continue;
      if (i + 1 < tail.size() && tail[i + 1] == ':') {
        ++i;
        continue;
      }
      if (i > 0 && tail[i - 1] == ':') continue;
      tail = tail.substr(0, i);
      break;
    }
    static const std::regex kNameRe(R"([A-Za-z_]\w*)");
    std::smatch nm;
    std::string name;
    std::string rest = tail;
    while (std::regex_search(rest, nm, kNameRe)) {
      std::string cand = nm.str();
      rest = nm.suffix().str();
      if (cand == "final" || cand == "public" || cand == "protected" ||
          cand == "private" || cand == "virtual") {
        continue;
      }
      name = cand;
      break;
    }
    return name;
  }

  std::string InnermostClassName() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->is_class) return model_->classes[it->class_index].name;
    }
    return "";
  }

  // Consumes a balanced {...} starting at s[*i] == '{'; returns the body
  // text (braces excluded) and leaves *i at the closing '}'.
  std::string ConsumeBraced(const std::string& s, size_t* i,
                            size_t* body_line) {
    *body_line = line_;
    int depth = 0;
    size_t start = *i + 1;
    size_t j = *i;
    for (; j < s.size(); ++j) {
      if (s[j] == '\n') ++line_;
      if (s[j] == '{') ++depth;
      if (s[j] == '}' && --depth == 0) break;
    }
    std::string body = s.substr(start, j > start ? j - start : 0);
    *i = j;
    return body;
  }

  void OnOpenBrace(const std::string& s, size_t* i) {
    const std::string trimmed = Trim(pending_);
    if (LooksLikeClassHead(trimmed)) {
      ClassModel cls;
      cls.name = ClassNameFrom(trimmed);
      cls.enclosing = InnermostClassName();
      model_->classes.push_back(std::move(cls));
      scopes_.push_back(
          {true, static_cast<int>(model_->classes.size()) - 1});
      pending_.clear();
      return;
    }
    if (HasToken(trimmed, "namespace")) {
      scopes_.push_back({false, -1});
      pending_.clear();
      return;
    }
    FnHeader header = ParseFunctionHeader(trimmed);
    if (header.ok && TailAllowsFunctionBody(trimmed)) {
      FunctionModel fn;
      fn.class_name =
          header.class_name.empty() ? InnermostClassName() : header.class_name;
      fn.name = header.name;
      fn.header = trimmed;
      fn.line = pending_line_;
      std::string hdr = trimmed;
      fn.annotation = ExtractAnnotations(&hdr, nullptr);
      fn.body = ConsumeBraced(s, i, &fn.body_start_line);
      CollectCallees(fn.body, &fn);
      CollectVarDecls(fn.header, &fn);
      CollectVarDecls(fn.body, &fn);
      model_->functions.push_back(std::move(fn));
      pending_.clear();
      return;
    }
    // Aggregate/brace initializer, enum body, or anything else we do not
    // model: swallow it balanced and keep accumulating the statement.
    size_t body_line = 0;
    ConsumeBraced(s, i, &body_line);
    pending_ += "{}";
  }

  FileModel* model_;
  std::vector<Scope> scopes_;
  std::string pending_;
  size_t pending_line_ = 1;
  size_t line_ = 1;
  bool line_has_code_ = false;
};

void ParseIncludes(FileModel* model) {
  static const std::regex kIncludeRe(R"(^\s*#\s*include\s*"([^"]+)\")");
  std::vector<std::string> raw_lines = SplitLines(model->file.content);
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(raw_lines[i], m, kIncludeRe)) {
      model->includes.push_back({m[1].str(), i + 1});
    }
  }
}

// --- Per-file rules (v1 semantics, unchanged) --------------------------------

void CheckIncludeGuard(const SourceFile& file,
                       const std::vector<std::string>& lines,
                       std::vector<Violation>* out) {
  static const std::regex kPragmaRe(R"(^\s*#\s*pragma\s+once\b)");
  static const std::regex kIfndefRe(R"(^\s*#\s*ifndef\s+([A-Za-z_]\w*))");
  std::string guard;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i], m, kPragmaRe)) return;
    if (guard.empty() && std::regex_search(lines[i], m, kIfndefRe)) {
      guard = m[1].str();
      // The matching #define must follow within the next few lines.
      std::regex define_re(R"(^\s*#\s*define\s+)" + guard + R"(\b)");
      for (size_t j = i + 1; j < lines.size() && j < i + 4; ++j) {
        if (std::regex_search(lines[j], define_re)) return;
      }
    }
  }
  out->push_back({file.path, 1, "include-guard",
                  "header has neither #pragma once nor a matching "
                  "#ifndef/#define include guard"});
}

void CheckUsingNamespace(const SourceFile& file,
                         const std::vector<std::string>& lines,
                         std::vector<Violation>* out) {
  static const std::regex kUsingRe(R"(^\s*using\s+namespace\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i], kUsingRe)) {
      out->push_back({file.path, i + 1, "using-namespace-header",
                      "`using namespace` in a header leaks into every "
                      "includer; qualify names instead"});
    }
  }
}

void CheckRawNewDelete(const SourceFile& file,
                       const std::vector<std::string>& lines,
                       std::vector<Violation>* out) {
  static const std::regex kNewRe(R"(\bnew\b(?!\s*\()\s*[A-Za-z_<:])");
  static const std::regex kDeleteRe(
      R"((^|[^=\s])\s*\bdelete\b(\s*\[\s*\])?\s*[A-Za-z_*(])");
  static const std::regex kDeletedFnRe(R"(=\s*delete\b)");
  static const std::regex kStaticRe(R"(\bstatic\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (std::regex_search(line, kNewRe)) {
      // The static-local intentional-leak idiom (`static const X* k =
      // new X{...};`) is exempt: it exists to dodge destruction-order
      // issues, and the allocation provably happens once.
      bool static_ctx = std::regex_search(line, kStaticRe) ||
                        (i > 0 && std::regex_search(lines[i - 1], kStaticRe));
      if (!static_ctx) {
        out->push_back({file.path, i + 1, "raw-new",
                        "raw `new`; use std::make_unique / containers (the "
                        "static-leak idiom is exempt)"});
      }
    }
    if (std::regex_search(line, kDeleteRe) &&
        !std::regex_search(line, kDeletedFnRe)) {
      out->push_back({file.path, i + 1, "raw-delete",
                      "raw `delete`; ownership belongs in smart pointers "
                      "or containers"});
    }
  }
}

void CheckBannedRng(const SourceFile& file,
                    const std::vector<std::string>& lines,
                    std::vector<Violation>* out) {
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<Pattern>* kPatterns = new std::vector<Pattern>{
      {std::regex(R"(\brand\s*\()"), "rand()"},
      {std::regex(R"(\bsrand\s*\()"), "srand()"},
      {std::regex(R"(\brandom_device\b)"), "std::random_device"},
      {std::regex(R"(\bmt19937(_64)?\b)"), "a locally constructed engine"},
      {std::regex(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))"),
       "a wall-clock seed"},
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    for (const Pattern& p : *kPatterns) {
      if (std::regex_search(lines[i], p.re)) {
        out->push_back(
            {file.path, i + 1, "banned-rng",
             std::string("non-deterministic randomness via ") + p.what +
                 "; use wf::common::Rng with an explicit seed "
                 "(determinism rule, DESIGN.md)"});
        break;  // one finding per line is enough
      }
    }
  }
}

void CheckFloatEquality(const SourceFile& file,
                        const std::vector<std::string>& lines,
                        std::vector<Violation>* out) {
  static const std::regex kEqMacroRe(R"(\b(EXPECT_EQ|ASSERT_EQ)\s*\()");
  static const std::regex kFloatLiteralRe(
      R"(^[-+]?(\d+\.\d*|\.\d+)([eE][-+]?\d+)?f?$|^[-+]?\d+[eE][-+]?\d+f?$)");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kEqMacroRe)) continue;
    std::string stmt = AccumulateStatement(lines, i);
    if (stmt.empty()) continue;
    size_t open = stmt.find('(', stmt.find(m[1].str()));
    if (open == std::string::npos) continue;
    for (const std::string& arg : SplitTopLevelArgs(stmt, open)) {
      if (std::regex_match(Trim(arg), kFloatLiteralRe)) {
        out->push_back({file.path, i + 1, "float-equality",
                        m[1].str() + " against the float literal " +
                            Trim(arg) +
                            "; use EXPECT_NEAR (or EXPECT_DOUBLE_EQ)"});
        break;
      }
    }
  }
}

void CheckDiscardedStatus(const SourceFile& file,
                          const std::vector<std::string>& lines,
                          const std::set<std::string>& fallible,
                          std::vector<Violation>* out) {
  // A bare expression-statement `receiver->Name(args);` whose callee is a
  // known Status/Result-returning function. Anything that consumes the
  // value — return, assignment, macro wrapper, (void) cast, if condition —
  // fails this shape and is skipped.
  static const std::regex kCallRe(
      R"(^\s*((?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*)([A-Za-z_]\w*)\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kCallRe,
                           std::regex_constants::match_continuous)) {
      continue;
    }
    const std::string callee = m[2].str();
    if (fallible.count(callee) == 0) continue;
    std::string stmt = AccumulateStatement(lines, i);
    if (stmt.empty()) continue;
    if (HasTopLevelAssignment(stmt)) continue;
    // Must be a pure call statement: nothing after the closing paren of the
    // call but the terminating semicolon.
    std::string trimmed = Trim(stmt);
    if (trimmed.size() < 2 ||
        trimmed.compare(trimmed.size() - 2, 2, ");") != 0) {
      continue;
    }
    out->push_back({file.path, i + 1, "discarded-status",
                    "result of fallible call `" + callee +
                        "(...)` is discarded; handle it, propagate it, or "
                        "(void)-cast with a comment"});
  }
}

void CheckUncheckedRpc(const SourceFile& file,
                       const std::vector<std::string>& lines,
                       std::vector<Violation>* out) {
  // Query-path code only (scatter/gather and the sentiment query services):
  // there, a bus Call whose Result is never status-checked turns a transient
  // fault into a silently wrong answer instead of degraded coverage. Other
  // layers are covered by [[nodiscard]] + discarded-status.
  if (file.path.find("query") == std::string::npos &&
      file.path.find("cluster") == std::string::npos) {
    return;
  }
  // Matches the receiver spellings used for the bus: `bus->Call(`,
  // `bus.Call(`, `bus_.Call(`, `bus().Call(`. Deliberately not CallAll,
  // which returns per-service Results the gather loop inspects.
  static const std::regex kBusCallRe(
      R"(\bbus(_\b|\s*\(\s*\))?\s*(\.|->)\s*Call\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kBusCallRe)) continue;
    std::string stmt = AccumulateStatement(lines, i);
    if (stmt.empty()) continue;
    // Any status inspection (or explicit discard) in the statement is fine.
    if (stmt.find(".ok()") != std::string::npos ||
        stmt.find(".status(") != std::string::npos ||
        stmt.find("WF_RETURN_IF_ERROR") != std::string::npos ||
        stmt.find("WF_CHECK_OK") != std::string::npos ||
        stmt.find("(void)") != std::string::npos) {
      continue;
    }
    if (Trim(stmt).compare(0, 6, "return") == 0) continue;  // caller's job
    std::smatch sm;
    if (!std::regex_search(stmt, sm, kBusCallRe)) continue;
    size_t call_pos = static_cast<size_t>(sm.position(0));
    size_t open = stmt.find('(', call_pos + sm.length(0) - 1);
    if (open == std::string::npos) continue;
    size_t close = MatchParen(stmt, open);
    if (close == std::string::npos) continue;

    // Deref without check, form 1: the temporary is member-accessed right
    // after the call (`bus->Call(...).value()`, `...Call(...)->empty()`).
    size_t after = stmt.find_first_not_of(" \t", close + 1);
    bool deref_suffix =
        after != std::string::npos &&
        (stmt[after] == '.' ||
         (stmt[after] == '-' && after + 1 < stmt.size() &&
          stmt[after + 1] == '>'));

    // Deref form 2: the whole receiver chain is star-dereferenced
    // (`*cluster_->bus().Call(...)`). Walk back over the chain to see what
    // precedes it.
    size_t j = call_pos;
    while (j > 0) {
      char c = stmt[j - 1];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == ':' || c == ' ') {
        --j;
      } else if (c == '>' && j >= 2 && stmt[j - 2] == '-') {
        j -= 2;
      } else if (c == ')' && j >= 2 && stmt[j - 2] == '(') {
        j -= 2;
      } else {
        break;
      }
    }
    bool deref_prefix = j > 0 && stmt[j - 1] == '*';

    // Bare discard: the call is the entire statement.
    bool bare_discard = !HasTopLevelAssignment(stmt) &&
                        after != std::string::npos && stmt[after] == ';';

    if (deref_suffix || deref_prefix || bare_discard) {
      out->push_back(
          {file.path, i + 1, "unchecked-rpc",
           "bus Call on the query path ignores the Result status; check "
           ".ok() and degrade coverage (CallOptions adds retries) instead "
           "of assuming the shard answered"});
    }
  }
}

void CheckPlatformRawTiming(const SourceFile& file,
                            const std::vector<std::string>& lines,
                            std::vector<Violation>* out) {
  // Platform code must time through wf_obs (obs::MonotonicNowUs or
  // obs::ScopedTimer): a raw clock read is either a duration that bypasses
  // the timing histograms or an unquarantined source of nondeterminism.
  // wf_obs itself (src/obs/) is the sanctioned home of the one raw read,
  // and is outside this rule's path scope by construction.
  if (file.path.find("platform/") == std::string::npos) return;
  static const std::regex kClockNowRe(
      R"(\b(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kClockNowRe)) continue;
    out->push_back({file.path, i + 1, "platform-raw-timing",
                    "raw " + m[1].str() +
                        "::now() in platform code; time through "
                        "obs::MonotonicNowUs()/obs::ScopedTimer so durations "
                        "land in wf_obs timing histograms (DESIGN.md §8)"});
  }
}

void CheckPlatformRawThread(const SourceFile& file,
                            const std::vector<std::string>& lines,
                            std::vector<Violation>* out) {
  // Platform and core code must schedule work through the shared pool
  // type (MineExecutor): an ad-hoc std::thread or std::async spawns
  // unbounded concurrency that the executor's worker cap, utilization
  // gauges, and determinism contract never see. The pool implementation
  // itself, and the bus's sick lane, carry an allow() suppression.
  if (file.path.find("platform/") == std::string::npos &&
      file.path.find("core/") == std::string::npos) {
    return;
  }
  static const std::regex kRawThreadRe(R"(\bstd\s*::\s*(thread|async)\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kRawThreadRe)) continue;
    out->push_back({file.path, i + 1, "platform-raw-thread",
                    "raw std::" + m[1].str() +
                        " in platform/core code; schedule through the shared "
                        "pool type (MineExecutor) so concurrency stays "
                        "bounded and observable (DESIGN.md §10)"});
  }
}

void CheckPlatformRawFileIo(const SourceFile& file,
                            const std::vector<std::string>& lines,
                            std::vector<Violation>* out) {
  // Platform storage must write through the durable-file layer
  // (common::DurableFile / WriteFileAtomic / WriteSnapshotFile): a raw
  // output stream bypasses both the storage fault-injection point and the
  // write-temp-then-atomic-rename discipline, so a crash mid-write can
  // destroy the previous good file. wf_common owns the one sanctioned raw
  // stream and is outside this rule's path scope by construction. Reads
  // (std::ifstream) are unaffected. src/store — the segment engine whose
  // whole job is writing files — is held to the same discipline: segment
  // and manifest bytes must pass the fault-injection point too.
  if (file.path.find("platform/") == std::string::npos &&
      file.path.find("store/") == std::string::npos) {
    return;
  }
  static const std::regex kRawWriteRe(
      R"(\b(?:std\s*::\s*)?(ofstream|fstream)\b|\b(fopen|freopen|fwrite)\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    // `#include <fstream>` is how read-side code gets std::ifstream, which
    // is legal here; any write-type *use* is still caught on its own line.
    if (Trim(lines[i]).rfind("#include", 0) == 0) continue;
    std::smatch m;
    if (!std::regex_search(lines[i], m, kRawWriteRe)) continue;
    std::string what = m[1].matched ? m[1].str() : m[2].str() + "()";
    out->push_back(
        {file.path, i + 1, "platform-raw-file-io",
         "raw " + what +
             " write path in platform/store code; go through "
             "common::DurableFile "
             "/ WriteFileAtomic / WriteSnapshotFile so every byte passes "
             "fault injection and atomic replacement (DESIGN.md §9)"});
  }
}

void CheckServingUnboundedWait(const FileModel& fm,
                               std::vector<Violation>* out) {
  // Serving-layer code (src/serve) sits on the overload path: any block
  // without a bound — an untimed cv wait, a sleep, a bus call with no
  // deadline — is a request that can hang instead of shedding. Every wait
  // there must be wait_for/wait_until under the request's remaining
  // budget, and every bus call must carry CallOptions/a deadline: Call and
  // CallAll both default theirs to none, so a call that omits it compiles.
  if (fm.layer != "serve") return;
  static const std::regex kUntimedWaitRe(R"(\.\s*wait\s*\()");
  static const std::regex kSleepRe(R"(\bsleep_(for|until)\s*\()");
  static const std::regex kBusCallRe(
      R"(\bbus(_\b|\s*\(\s*\))?\s*(\.|->)\s*Call(All)?\s*\()");
  for (size_t i = 0; i < fm.lines.size(); ++i) {
    const std::string& line = fm.lines[i];
    if (std::regex_search(line, kUntimedWaitRe)) {
      out->push_back(
          {fm.file.path, i + 1, "serving-unbounded-wait",
           "untimed condition-variable wait in serving code; use wait_for "
           "with the request's remaining deadline so overload sheds instead "
           "of hanging"});
    }
    if (std::regex_search(line, kSleepRe)) {
      out->push_back(
          {fm.file.path, i + 1, "serving-unbounded-wait",
           "sleep in serving code; serving threads are caller-runs and must "
           "only block in deadline-bounded waits"});
    }
    if (std::regex_search(line, kBusCallRe)) {
      std::string stmt = AccumulateStatement(fm.lines, i);
      if (stmt.empty()) continue;
      if (stmt.find("CallOptions") == std::string::npos &&
          stmt.find("options") == std::string::npos &&
          stmt.find("Deadline") == std::string::npos &&
          stmt.find("deadline") == std::string::npos) {
        out->push_back(
            {fm.file.path, i + 1, "serving-unbounded-wait",
             "bus call in serving code without a deadline: pass CallOptions "
             "with deadline_us (or thread the request Deadline) so no "
             "downstream call can outlive its caller's budget"});
      }
    }
  }
}

void CheckServingUnclampedHedge(const FileModel& fm,
                                std::vector<Violation>* out) {
  // Hedged/re-issued work on the serving path (src/serve and the platform
  // bus it rides) must schedule inside the request's deadline: a hedge
  // timer computed without consulting the expiry happily re-issues work the
  // caller can no longer use, doubling load exactly when the system is
  // slow (DESIGN.md §14). Any statement assigning a hedge/reissue schedule
  // variable must mention the deadline/expiry (or clamp through std::min /
  // std::clamp against it) in that same statement. Plain literal
  // initializers (`hedge_at_us = 0;` — the "never" sentinel) are exempt.
  if (fm.layer != "serve" && fm.layer != "platform") return;
  static const std::regex kHedgeAssignRe(
      R"(\b(?:hedge|reissue)\w*(?:_at|_delay|_us)\w*\s*=[^=])");
  static const std::regex kLiteralInitRe(R"(=\s*\{?\s*\d*\s*\}?\s*;)");
  for (size_t i = 0; i < fm.lines.size(); ++i) {
    if (!std::regex_search(fm.lines[i], kHedgeAssignRe)) continue;
    std::string stmt = AccumulateStatement(fm.lines, i);
    if (stmt.empty()) continue;
    if (std::regex_search(stmt, kLiteralInitRe)) continue;
    if (stmt.find("deadline") != std::string::npos ||
        stmt.find("Deadline") != std::string::npos ||
        stmt.find("expiry") != std::string::npos ||
        stmt.find("expires") != std::string::npos ||
        stmt.find("clamp") != std::string::npos ||
        stmt.find("min(") != std::string::npos) {
      continue;
    }
    out->push_back(
        {fm.file.path, i + 1, "serving-unclamped-hedge",
         "hedge/re-issue schedule assigned without consulting the request "
         "deadline; clamp the fire time against the expiry (std::min / "
         "std::clamp or an explicit deadline check in the same statement) "
         "so hedging never adds load past the caller's budget "
         "(DESIGN.md §14)"});
  }
}

// --- Cross-file rules --------------------------------------------------------

// Layers where a mutex member implies a lock discipline worth annotating.
bool LayerWantsAnnotations(const std::string& layer) {
  return layer == "platform" || layer == "obs" || layer == "core" ||
         layer == "serve" || layer == "store";
}

void CheckLayering(const FileModel& fm, std::vector<Violation>* out) {
  if (fm.layer.empty()) return;  // tests/bench/examples: unrestricted
  const auto& dag = LayeringDag();
  auto it = dag.find(fm.layer);
  if (it == dag.end()) return;
  for (const IncludeEdge& inc : fm.includes) {
    size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;
    std::string target = inc.target.substr(0, slash);
    if (target == fm.layer) continue;       // intra-layer: always allowed
    if (dag.find(target) == dag.end()) continue;  // not a src/ layer
    if (it->second.count(target) == 0) {
      out->push_back(
          {fm.file.path, inc.line, "layering",
           "#include \"" + inc.target + "\" crosses the layering DAG: " +
               fm.layer + " may not depend on " + target +
               " (DESIGN.md §11 layer order)"});
    }
  }
}

void CheckUnguardedFields(const FileModel& fm, std::vector<Violation>* out) {
  if (!LayerWantsAnnotations(fm.layer)) return;
  for (const ClassModel& cls : fm.classes) {
    if (cls.mutexes.empty()) continue;
    for (const FieldInfo& f : cls.fields) {
      if (!f.after_mutex || f.exempt || !f.guard.empty()) continue;
      out->push_back(
          {fm.file.path, f.line, "unguarded-field",
           "field '" + f.name + "' of " +
               (cls.name.empty() ? "class" : cls.name) +
               " is declared after mutex '" + cls.mutexes.front() +
               "' but carries no WF_GUARDED_BY annotation; annotate it or "
               "move immutable configuration above the mutex"});
    }
  }
}

size_t LineOfOffset(size_t start_line, const std::string& text,
                    size_t offset) {
  return start_line +
         static_cast<size_t>(
             std::count(text.begin(), text.begin() + static_cast<long>(offset),
                        '\n'));
}

bool BodyLocksMutex(const std::string& body, const std::string& mu) {
  static const char* kHolders[] = {"MutexLock", "lock_guard", "unique_lock",
                                   "scoped_lock", "shared_lock"};
  for (const char* h : kHolders) {
    size_t pos = 0;
    while ((pos = body.find(h, pos)) != std::string::npos) {
      size_t open = body.find('(', pos + std::strlen(h));
      pos += std::strlen(h);
      if (open == std::string::npos) break;
      size_t close = MatchParen(body, open);
      if (close == std::string::npos) break;
      if (HasToken(body.substr(open, close - open + 1), mu)) return true;
    }
  }
  std::regex direct_lock("(^|[^\\w])" + mu +
                         "\\s*\\.\\s*(lock|try_lock)\\s*\\(");
  return std::regex_search(body, direct_lock);
}

}  // namespace

// --- Public API -------------------------------------------------------------

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo>* kRules = new std::vector<RuleInfo>{
      {"discarded-status",
       "Status/Result<T> return value silently discarded"},
      {"raw-new", "raw `new` outside the static-leak idiom"},
      {"raw-delete", "raw `delete`"},
      {"banned-rng",
       "non-deterministic RNG (rand, random_device, local engines, "
       "wall-clock seeds)"},
      {"using-namespace-header", "`using namespace` in a header"},
      {"include-guard", "header missing #pragma once / include guard"},
      {"float-equality", "EXPECT_EQ/ASSERT_EQ against a float literal"},
      {"unchecked-rpc",
       "query-path bus Call whose Result status is never checked"},
      {"platform-raw-timing",
       "raw std::chrono clock read in platform code instead of wf_obs "
       "timers"},
      {"platform-raw-file-io",
       "raw file write (ofstream/fopen/fwrite) in platform/store code "
       "instead of the durable-file layer"},
      {"platform-raw-thread",
       "raw std::thread/std::async in platform or core code instead of the "
       "shared pool type"},
      {"layering",
       "#include edge that crosses the src/ layering DAG (DESIGN.md §11)"},
      {"guarded-by",
       "WF_GUARDED_BY field touched in a member function that neither locks "
       "its mutex nor is annotated WF_REQUIRES"},
      {"unguarded-field",
       "field declared after a mutex member without a WF_GUARDED_BY "
       "annotation (platform/obs/core)"},
      {"unordered-serialization",
       "iteration over std::unordered_{map,set} that reaches a "
       "serialization/export/hash sink (determinism contract, DESIGN.md "
       "§10)"},
      {"hot-path-alloc",
       "allocation-heavy pattern (by-value std::string param, allocating "
       "substr, unreserved per-element push_back) in src/{text,pos,parse}, "
       "plus std::string construction inside token loops in "
       "src/{parse,core}"},
      {"serving-unbounded-wait",
       "blocking wait, sleep, or deadline-less bus call in src/serve (the "
       "overload path must shed, never hang)"},
      {"serving-unclamped-hedge",
       "hedge/re-issue schedule in src/serve or src/platform not clamped "
       "to the request deadline"},
      {"unknown-rule", "wflint allow() comment names an unknown rule"},
      {"unused-suppression",
       "wflint allow() names a rule that never fires in that file"},
  };
  return *kRules;
}

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : Rules()) {
    if (id == r.id) return true;
  }
  return false;
}

const std::map<std::string, std::set<std::string>>& LayeringDag() {
  // Computed from the dependency structure the repo is supposed to have
  // (DESIGN.md §11): leaves at the top, the platform and tools at the
  // bottom. A layer may include itself and the listed layers only.
  static const auto* kDag = new std::map<std::string, std::set<std::string>>{
      {"common", {}},
      {"obs", {"common"}},
      {"store", {"common", "obs"}},
      {"text", {"common"}},
      {"pos", {"common", "text"}},
      {"parse", {"common", "text", "pos"}},
      {"lexicon", {"common", "text", "pos"}},
      {"ner", {"common", "text"}},
      {"spot", {"common", "text"}},
      {"feature", {"common", "text", "pos"}},
      {"corpus", {"common", "text", "lexicon"}},
      {"baseline", {"common", "text", "pos", "parse", "lexicon"}},
      {"core",
       {"common", "obs", "text", "pos", "parse", "lexicon", "ner", "spot",
        "feature"}},
      {"platform",
       {"common", "obs", "store", "text", "pos", "parse", "lexicon", "ner",
        "spot", "feature", "core"}},
      {"serve",
       {"common", "obs", "store", "text", "pos", "parse", "lexicon", "ner",
        "spot", "feature", "core", "platform"}},
      {"eval",
       {"common", "text", "pos", "parse", "lexicon", "corpus", "baseline",
        "core"}},
      {"tools",
       {"common", "obs", "store", "text", "pos", "parse", "lexicon", "ner",
        "spot", "feature", "corpus", "baseline", "core", "platform", "serve",
        "eval"}},
  };
  return *kDag;
}

Engine::Engine() = default;
Engine::~Engine() = default;

void Engine::AddFile(const SourceFile& file) {
  // Fallible-function names feed the discarded-status rule exactly as in
  // v1: any Status/Result<T>-returning declaration anywhere in the repo.
  static const std::regex kFallibleRe(
      R"((?:^|[\s;{}(])(?:[A-Za-z_]\w*::)*(?:Status|Result\s*<[^;{}()]*>)\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\()");
  auto model = std::make_unique<FileModel>();
  model->file = file;
  model->layer = LayerOf(file.path);
  model->is_header = IsHeaderPath(file.path);
  const std::string scrubbed = Scrub(file.content);
  model->lines = SplitLines(scrubbed);
  model->comment_lines =
      SplitLines(Scrub(file.content, /*keep_comments=*/true));
  model->suppressions = ParseSuppressions(file.path, model->comment_lines);
  ParseIncludes(model.get());
  ModelBuilder(model.get()).Build(scrubbed);

  auto begin =
      std::sregex_iterator(scrubbed.begin(), scrubbed.end(), kFallibleRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    fallible_.insert((*it)[1].str());
  }
  files_.push_back(std::move(model));
}

size_t Engine::file_count() const { return files_.size(); }

const std::set<std::string>& Engine::fallible_functions() const {
  return fallible_;
}

namespace {

bool IsSinkName(const std::string& name) {
  static const std::regex kSinkRe(
      R"(^(Save|Serialize\w*|Export\w*|ToWire\w*|ToJson\w*|ToText\w*|Write\w*|Encode\w*|Fingerprint\w*|Fnv1a64|HashCombine\w*)$)");
  return std::regex_match(name, kSinkRe);
}

// Whole-model context shared by the cross-file rules.
struct CrossFileIndex {
  // (class name, function name) -> merged annotations from every
  // declaration and definition seen anywhere.
  std::map<std::string, std::map<std::string, FnAnnotation>> class_fns;
  // Function names whose bodies reach a serialization sink (directly by
  // calling a sink-named function, or transitively).
  std::set<std::string> reaches_sink;
  // Unordered-typed field names per file (for loop-target resolution).
  std::map<const FileModel*, std::set<std::string>> unordered_fields;
  // Every function in the repo, with its defining file.
  std::vector<std::pair<const FileModel*, const FunctionModel*>> functions;
};

CrossFileIndex BuildIndex(
    const std::vector<std::unique_ptr<FileModel>>& files) {
  CrossFileIndex idx;
  std::map<std::string, std::set<std::string>> calls;  // name -> callees
  for (const auto& fm : files) {
    for (const ClassModel& cls : fm->classes) {
      for (const auto& [fn_name, ann] : cls.fn_annotations) {
        idx.class_fns[cls.name][fn_name].MergeFrom(ann);
      }
      for (const FieldInfo& f : cls.fields) {
        if (f.unordered) idx.unordered_fields[fm.get()].insert(f.name);
      }
    }
    for (const FunctionModel& fn : fm->functions) {
      idx.functions.emplace_back(fm.get(), &fn);
      if (!fn.class_name.empty()) {
        idx.class_fns[fn.class_name][fn.name].MergeFrom(fn.annotation);
      }
      auto& c = calls[fn.name];
      c.insert(fn.callees.begin(), fn.callees.end());
    }
  }
  // Fixpoint: a function reaches a sink if it is sink-named, calls a
  // sink-named function, or calls a function that reaches one.
  for (const auto& [name, callees] : calls) {
    if (IsSinkName(name)) idx.reaches_sink.insert(name);
    for (const std::string& c : callees) {
      if (IsSinkName(c)) {
        idx.reaches_sink.insert(name);
        break;
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, callees] : calls) {
      if (idx.reaches_sink.count(name)) continue;
      for (const std::string& c : callees) {
        if (idx.reaches_sink.count(c)) {
          idx.reaches_sink.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
  return idx;
}

FnAnnotation MergedAnnotation(const CrossFileIndex& idx,
                              const FunctionModel& fn) {
  FnAnnotation ann = fn.annotation;
  if (!fn.class_name.empty()) {
    auto cit = idx.class_fns.find(fn.class_name);
    if (cit != idx.class_fns.end()) {
      auto fit = cit->second.find(fn.name);
      if (fit != cit->second.end()) ann.MergeFrom(fit->second);
    }
  }
  return ann;
}

void CheckGuardedBy(const FileModel& fm, const CrossFileIndex& idx,
                    std::map<std::string, std::vector<Violation>>* by_file) {
  for (const ClassModel& cls : fm.classes) {
    for (const FieldInfo& f : cls.fields) {
      if (f.guard.empty()) continue;
      for (const auto& [fn_file, fn] : idx.functions) {
        if (fn->class_name != cls.name &&
            (cls.enclosing.empty() || fn->class_name != cls.enclosing)) {
          continue;
        }
        if (fn->name == fn->class_name || fn->name[0] == '~') continue;
        FnAnnotation ann = MergedAnnotation(idx, *fn);
        if (ann.no_analysis) continue;
        if (ann.requires_held.count(f.guard)) continue;
        size_t pos = FindToken(fn->body, f.name);
        if (pos == std::string::npos) continue;
        if (BodyLocksMutex(fn->body, f.guard)) continue;
        (*by_file)[fn_file->file.path].push_back(
            {fn_file->file.path,
             LineOfOffset(fn->body_start_line, fn->body, pos), "guarded-by",
             "field '" + f.name + "' is WF_GUARDED_BY(" + f.guard +
                 ") but " + (fn->class_name.empty() ? "" : fn->class_name +
                 "::") + fn->name +
                 " touches it without locking " + f.guard +
                 " (annotate WF_REQUIRES(" + f.guard +
                 ") if the caller holds it)"});
      }
    }
  }
}

// Finds iteration targets (range-for and .begin() loops) in a function
// body: returns (identifier, offset) pairs.
std::vector<std::pair<std::string, size_t>> IterationTargets(
    const std::string& body) {
  std::vector<std::pair<std::string, size_t>> out;
  // Range-for: `for ( decl : expr )` — take the last identifier of expr.
  size_t pos = 0;
  while ((pos = body.find("for", pos)) != std::string::npos) {
    size_t start = pos;
    pos += 3;
    bool lb = start == 0 || !IsIdentChar(body[start - 1]);
    if (!lb || (pos < body.size() && IsIdentChar(body[pos]))) continue;
    size_t open = body.find_first_not_of(" \t\n", pos);
    if (open == std::string::npos || body[open] != '(') continue;
    size_t close = MatchParen(body, open);
    if (close == std::string::npos) continue;
    std::string head = body.substr(open + 1, close - open - 1);
    // The ':' of a range-for is at zero depth and not part of '::'.
    int depth = 0;
    size_t colon = std::string::npos;
    for (size_t i = 0; i < head.size(); ++i) {
      char c = head[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (depth != 0 || c != ':') continue;
      if (i + 1 < head.size() && head[i + 1] == ':') {
        ++i;
        continue;
      }
      if (i > 0 && head[i - 1] == ':') continue;
      colon = i;
      break;
    }
    if (colon == std::string::npos) continue;
    std::string expr = Trim(head.substr(colon + 1));
    // A call like `Snapshot()` yields a fresh value; only bare
    // identifier chains name a container we can classify.
    if (!expr.empty() && expr.back() == ')') continue;
    std::string id = LastIdentifier(expr);
    if (!id.empty()) out.emplace_back(id, start);
  }
  // Iterator form: `x.begin()`.
  static const std::regex kBeginRe(R"(([A-Za-z_]\w*)\s*\.\s*begin\s*\()");
  auto begin = std::sregex_iterator(body.begin(), body.end(), kBeginRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1].str(),
                     static_cast<size_t>(it->position(1)));
  }
  return out;
}

void CheckUnorderedSerialization(const FileModel& fm,
                                 const CrossFileIndex& idx,
                                 std::vector<Violation>* out) {
  if (fm.layer.empty()) return;
  auto ufit = idx.unordered_fields.find(&fm);
  const std::set<std::string>* fields =
      ufit != idx.unordered_fields.end() ? &ufit->second : nullptr;
  for (const FunctionModel& fn : fm.functions) {
    // The function must lead to a serialization sink for iteration order
    // to become output order.
    bool sinkish = IsSinkName(fn.name) || idx.reaches_sink.count(fn.name);
    if (!sinkish) {
      for (const std::string& c : fn.callees) {
        if (IsSinkName(c) || idx.reaches_sink.count(c)) {
          sinkish = true;
          break;
        }
      }
    }
    if (!sinkish) continue;
    // An explicit sort before emitting is the sanctioned fix; treat any
    // sort in the function as the escape hatch.
    if (fn.body.find("sort(") != std::string::npos) continue;
    std::set<std::string> flagged;
    for (const auto& [id, off] : IterationTargets(fn.body)) {
      bool unordered = fn.unordered_vars.count(id) > 0 ||
                       (fields != nullptr && fields->count(id) > 0);
      if (!unordered || !flagged.insert(id).second) continue;
      out->push_back(
          {fm.file.path, LineOfOffset(fn.body_start_line, fn.body, off),
           "unordered-serialization",
           "iteration over unordered container '" + id + "' in " + fn.name +
               " reaches a serialization sink; sort the keys first or use "
               "std::map so output is byte-identical (DESIGN.md §10)"});
    }
  }
}

// Flags std::string construction (declarations and temporaries) inside a
// loop whose header mentions tokens: the analysis front half runs one such
// loop per sentence, so a per-token allocation multiplies across the whole
// corpus. The sanctioned fixes are a hoisted buffer (declared before the
// loop), interned string_views, or LowerInto.
void CheckTokenLoopStrings(const FunctionModel& fn, const FileModel& fm,
                           std::vector<Violation>* out) {
  static const std::regex kStrDeclRe(
      R"(std\s*::\s*string\s+([A-Za-z_]\w*))");
  static const std::regex kStrTempRe(R"(std\s*::\s*string\s*\()");
  const std::string& body = fn.body;
  std::set<std::string> flagged;
  size_t p = 0;
  for (;;) {
    // Next for/while keyword with word boundaries.
    size_t loop = std::string::npos;
    for (const char* kw : {"for", "while"}) {
      size_t q = p;
      while ((q = body.find(kw, q)) != std::string::npos) {
        bool lb = q == 0 || !IsIdentChar(body[q - 1]);
        size_t e = q + std::strlen(kw);
        bool rb = e >= body.size() || !IsIdentChar(body[e]);
        if (lb && rb) break;
        q = e;
      }
      if (q != std::string::npos) loop = std::min(loop, q);
    }
    if (loop == std::string::npos) return;
    size_t open = body.find('(', loop);
    if (open == std::string::npos) return;
    int depth = 0;
    size_t close = open;
    while (close < body.size()) {
      if (body[close] == '(') ++depth;
      if (body[close] == ')' && --depth == 0) break;
      ++close;
    }
    if (close >= body.size()) return;
    p = close + 1;
    const std::string header = body.substr(open, close - open + 1);
    if (header.find("token") == std::string::npos &&
        header.find("Token") == std::string::npos) {
      continue;
    }
    size_t lb = close + 1;
    while (lb < body.size() && std::isspace(static_cast<unsigned char>(
                                   body[lb]))) {
      ++lb;
    }
    if (lb >= body.size() || body[lb] != '{') continue;  // braceless stmt
    depth = 0;
    size_t rb = lb;
    while (rb < body.size()) {
      if (body[rb] == '{') ++depth;
      if (body[rb] == '}' && --depth == 0) break;
      ++rb;
    }
    if (rb >= body.size()) return;
    const std::string inner = body.substr(lb, rb - lb);
    // Declarations: `std::string x` (the \s+ rejects `std::string&`,
    // `std::string*` and template arguments like vector<std::string>).
    auto db = std::sregex_iterator(inner.begin(), inner.end(), kStrDeclRe);
    for (auto it = db; it != std::sregex_iterator(); ++it) {
      const std::string var = (*it)[1].str();
      if (!flagged.insert(var).second) continue;
      out->push_back(
          {fm.file.path,
           LineOfOffset(fn.body_start_line, body,
                        lb + static_cast<size_t>(it->position(0))),
           "hot-path-alloc",
           "std::string '" + var + "' constructed inside a token loop in " +
               fn.name +
               "; hoist the buffer above the loop or intern the view "
               "(ROADMAP item 2)"});
    }
    // Temporaries: `std::string(...)` allocates every iteration too.
    auto tb = std::sregex_iterator(inner.begin(), inner.end(), kStrTempRe);
    for (auto it = tb; it != std::sregex_iterator(); ++it) {
      if (!flagged.insert("<temporary>").second) continue;
      out->push_back(
          {fm.file.path,
           LineOfOffset(fn.body_start_line, body,
                        lb + static_cast<size_t>(it->position(0))),
           "hot-path-alloc",
           "std::string temporary constructed inside a token loop in " +
               fn.name +
               "; hoist the buffer above the loop or intern the view "
               "(ROADMAP item 2)"});
    }
  }
}

void CheckHotPathAlloc(const FileModel& fm, std::vector<Violation>* out) {
  // Token-loop std::string construction also covers the parse/core back
  // half: MineContext consumers iterate the same token streams.
  if (fm.layer == "parse" || fm.layer == "core") {
    for (const FunctionModel& fn : fm.functions) {
      CheckTokenLoopStrings(fn, fm, out);
    }
  }
  if (fm.layer != "text" && fm.layer != "pos" && fm.layer != "parse") return;
  static const std::regex kByValRe(
      R"([(,]\s*(?:const\s+)?std\s*::\s*string\s+([A-Za-z_]\w*)\s*[,)=])");
  static const std::regex kSubstrRe(
      R"((?:([A-Za-z_]\w*)|(\)))\s*\.\s*substr\s*\()");
  static const std::regex kPushRe(
      R"(([A-Za-z_]\w*)\s*(?:\.|->)\s*(push_back|emplace_back)\s*\()");
  for (const FunctionModel& fn : fm.functions) {
    // By-value std::string parameters copy on every call.
    auto pb = std::sregex_iterator(fn.header.begin(), fn.header.end(),
                                   kByValRe);
    for (auto it = pb; it != std::sregex_iterator(); ++it) {
      out->push_back(
          {fm.file.path, fn.line, "hot-path-alloc",
           "parameter '" + (*it)[1].str() + "' of " + fn.name +
               " takes std::string by value; pass std::string_view (or "
               "const std::string&) on the tokenize/POS/parse front half "
               "(ROADMAP item 2)"});
    }
    // Allocating substr. string_view::substr is free and exempt.
    auto sb =
        std::sregex_iterator(fn.body.begin(), fn.body.end(), kSubstrRe);
    for (auto it = sb; it != std::sregex_iterator(); ++it) {
      size_t off = static_cast<size_t>(it->position(0));
      if ((*it)[1].matched) {
        if (fn.string_view_vars.count((*it)[1].str())) continue;
      } else {
        // `).substr(` — a temporary; exempt if it was a string_view cast.
        size_t close = off;
        while (close < fn.body.size() && fn.body[close] != ')') ++close;
        int depth = 0;
        size_t open = std::string::npos;
        for (size_t j = close; j != std::string::npos && j < fn.body.size();
             --j) {
          if (fn.body[j] == ')') ++depth;
          if (fn.body[j] == '(' && --depth == 0) {
            open = j;
            break;
          }
          if (j == 0) break;
        }
        if (open != std::string::npos) {
          size_t from = open > 24 ? open - 24 : 0;
          if (fn.body.substr(from, open - from).find("string_view") !=
              std::string::npos) {
            continue;
          }
        }
      }
      out->push_back(
          {fm.file.path, LineOfOffset(fn.body_start_line, fn.body, off),
           "hot-path-alloc",
           "allocating .substr() in " + fn.name +
               "; slice with std::string_view::substr instead "
               "(ROADMAP item 2)"});
    }
    // Per-element push_back inside a loop without a reserve().
    size_t first_loop = std::string::npos;
    for (const char* kw : {"for", "while"}) {
      size_t p = 0;
      while ((p = fn.body.find(kw, p)) != std::string::npos) {
        bool lb = p == 0 || !IsIdentChar(fn.body[p - 1]);
        size_t e = p + std::strlen(kw);
        bool rb = e >= fn.body.size() || !IsIdentChar(fn.body[e]);
        if (lb && rb) {
          first_loop = std::min(first_loop, p);
          break;
        }
        p = e;
      }
    }
    if (first_loop == std::string::npos) continue;
    std::set<std::string> flagged;
    auto qb = std::sregex_iterator(fn.body.begin(), fn.body.end(), kPushRe);
    for (auto it = qb; it != std::sregex_iterator(); ++it) {
      size_t off = static_cast<size_t>(it->position(0));
      if (off < first_loop) continue;
      std::string recv = (*it)[1].str();
      if (fn.body.find(recv + ".reserve(") != std::string::npos ||
          fn.body.find(recv + "->reserve(") != std::string::npos) {
        continue;
      }
      if (!flagged.insert(recv).second) continue;
      out->push_back(
          {fm.file.path, LineOfOffset(fn.body_start_line, fn.body, off),
           "hot-path-alloc",
           "per-element " + (*it)[2].str() + " into '" + recv + "' in " +
               fn.name +
               " without a reserve(); pre-size the container before the "
               "loop (ROADMAP item 2)"});
    }
  }
}

}  // namespace

std::vector<Violation> Engine::Run() const {
  CrossFileIndex idx = BuildIndex(files_);

  // Raw findings grouped by file path, so suppressions and the
  // unused-suppression rule can be applied per file no matter which file's
  // model produced the finding.
  std::map<std::string, std::vector<Violation>> by_file;
  for (const auto& fm : files_) {
    std::vector<Violation>& found = by_file[fm->file.path];
    if (fm->is_header) {
      CheckIncludeGuard(fm->file, fm->lines, &found);
      CheckUsingNamespace(fm->file, fm->lines, &found);
    }
    CheckRawNewDelete(fm->file, fm->lines, &found);
    CheckBannedRng(fm->file, fm->lines, &found);
    CheckFloatEquality(fm->file, fm->lines, &found);
    CheckDiscardedStatus(fm->file, fm->lines, fallible_, &found);
    CheckUncheckedRpc(fm->file, fm->lines, &found);
    CheckPlatformRawTiming(fm->file, fm->lines, &found);
    CheckPlatformRawThread(fm->file, fm->lines, &found);
    CheckPlatformRawFileIo(fm->file, fm->lines, &found);
    CheckServingUnboundedWait(*fm, &found);
    CheckServingUnclampedHedge(*fm, &found);
    CheckLayering(*fm, &found);
    CheckUnguardedFields(*fm, &found);
    CheckUnorderedSerialization(*fm, idx, &found);
    CheckHotPathAlloc(*fm, &found);
  }
  for (const auto& fm : files_) {
    CheckGuardedBy(*fm, idx, &by_file);
  }

  std::vector<Violation> out;
  for (const auto& fm : files_) {
    const Suppressions& sup = fm->suppressions;
    std::vector<Violation>& found = by_file[fm->file.path];
    std::map<std::string, size_t> hits;
    for (const Violation& v : found) ++hits[v.rule];
    for (Violation& v : found) {
      if (sup.allowed.count(v.rule) == 0) out.push_back(std::move(v));
    }
    for (const Violation& v : sup.unknown) out.push_back(v);
    for (const auto& [rule, line] : sup.allowed) {
      if (hits[rule] == 0) {
        out.push_back({fm->file.path, line, "unused-suppression",
                       "allow(" + rule +
                           ") suppresses nothing: the rule never fires in "
                           "this file; remove the stale suppression"});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

std::string FormatReport(std::vector<Violation> violations) {
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  std::string out;
  for (const Violation& v : violations) {
    out += v.file;
    out += '\t';
    out += std::to_string(v.line);
    out += '\t';
    out += v.rule;
    out += '\t';
    out += v.message;
    out += '\n';
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatJsonReport(std::vector<Violation> violations,
                             size_t files_scanned) {
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  std::string out = "{\"version\":2,\"files_scanned\":";
  out += std::to_string(files_scanned);
  out += ",\"count\":";
  out += std::to_string(violations.size());
  out += ",\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i > 0) out += ',';
    out += "{\"file\":\"" + JsonEscape(v.file) + "\",\"line\":" +
           std::to_string(v.line) + ",\"rule\":\"" + JsonEscape(v.rule) +
           "\",\"message\":\"" + JsonEscape(v.message) + "\"}";
  }
  out += "]}\n";
  return out;
}

}  // namespace wf::tools::wflint
