// Runs one benchmark workload:
//   wfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --work-dir <dir> [--trace-file <path>]
// Prints `# ` info lines and, last, one JSON result line on stdout.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "wfbench: %s\nusage: wfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-file <path>]\nworkloads:",
               problem);
  for (const std::string& name : wfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  wfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) {
        return Usage("--seed wants a non-negative integer");
      }
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0 || number > 600) {
        return Usage("--seconds wants a number in (0, 600]");
      }
      options.seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace wants 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || options.work_dir.empty()) {
    return Usage("--workload, --seed and --work-dir are required");
  }
  return wfbench::RunWorkload(options);
}
