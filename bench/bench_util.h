#ifndef WF_BENCH_BENCH_UTIL_H_
#define WF_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace wf::bench {

// Shared fixed seed so every bench reproduces the numbers recorded in
// EXPERIMENTS.md. Override with WF_BENCH_SEED in the environment.
inline uint64_t BenchSeed() {
  const char* env = ::getenv("WF_BENCH_SEED");
  if (env == nullptr) return 42;
  return static_cast<uint64_t>(::strtoull(env, nullptr, 10));
}

// One key/value in a bench JSON row; `rendered` is already-valid JSON value
// text (use the Num/Int/Str factories).
struct JsonField {
  std::string key;
  std::string rendered;
};

inline JsonField Num(const std::string& key, double value) {
  return {key, common::StrFormat("%.3f", value)};
}
inline JsonField Int(const std::string& key, uint64_t value) {
  return {key, common::StrFormat("%llu",
                                 static_cast<unsigned long long>(value))};
}
// JSON text is built with appends throughout: GCC 12 misreads a "literal"
// + std::string temporary as an overlapping copy (-Wrestrict, Release only).
inline JsonField Str(const std::string& key, const std::string& value) {
  std::string rendered = "\"";
  rendered += obs::JsonEscape(value);
  rendered += '"';
  return {key, std::move(rendered)};
}

// Machine-readable mirror of a bench's tables: rows accumulate per section
// and WriteFile() emits BENCH_<name>.json next to the human-readable output
// (into $WF_BENCH_JSON_DIR when set, the working directory otherwise), so
// sweeps can be diffed and plotted without scraping stdout. Registry
// snapshots embed via AddSnapshot, which is the bench-side outlet for
// wf_obs metrics.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {}

  void AddRow(const std::string& section, std::vector<JsonField> fields) {
    std::string row = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) row += ',';
      row += '"';
      row += obs::JsonEscape(fields[i].key);
      row += "\":";
      row += fields[i].rendered;
    }
    row += "}";
    sections_[section].push_back(std::move(row));
  }

  // Embeds a full metrics snapshot as one row of `section` (timing
  // histograms included by default — wall-clock numbers are the point of a
  // bench).
  void AddSnapshot(const std::string& section,
                   const obs::MetricsSnapshot& snapshot,
                   const obs::ExportOptions& options = {}) {
    sections_[section].push_back(snapshot.ExportJson(options));
  }

  std::string ToJson() const {
    std::string out = "{\"bench\":\"" + obs::JsonEscape(name_) + "\"";
    out += common::StrFormat(
        ",\"seed\":%llu", static_cast<unsigned long long>(BenchSeed()));
    out += ",\"sections\":{";
    bool first_section = true;
    for (const auto& [section, rows] : sections_) {
      if (!first_section) out += ',';
      first_section = false;
      out += '"';
      out += obs::JsonEscape(section);
      out += "\":[";
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) out += ',';
        out += rows[i];
      }
      out += "]";
    }
    out += "}}";
    return out;
  }

  // Writes BENCH_<name>.json; returns the path written to, or "" on error
  // (a bench must still print its tables when the directory is read-only).
  std::string WriteFile() const {
    const char* dir = ::getenv("WF_BENCH_JSON_DIR");
    std::string path = std::string(dir != nullptr ? dir : ".") + "/BENCH_" +
                       name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    std::string json = ToJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    bool ok = written == json.size() && std::fputc('\n', f) != EOF;
    ok = std::fclose(f) == 0 && ok;
    return ok ? path : "";
  }

 private:
  std::string name_;
  std::map<std::string, std::vector<std::string>> sections_;  // sorted keys
};

}  // namespace wf::bench

#endif  // WF_BENCH_BENCH_UTIL_H_
