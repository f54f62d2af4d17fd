#ifndef WFBENCH_WORKLOADS_H_
#define WFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Working directory for the durable nodes' files; created and emptied by
  // the run.
  std::string work_dir;
  // Where a traced run writes its spans (tab-separated); empty: nowhere.
  std::string trace_file;
};

std::vector<std::string> WorkloadNames();

// Runs one workload: prints `# ` info lines, then the result line (one
// JSON object) last, to stdout. Returns the process exit code: 0 when
// every answer gate passed, 1 when one failed, 2 when set-up failed.
int RunWorkload(const RunOptions& options);

}  // namespace wfbench

#endif  // WFBENCH_WORKLOADS_H_
