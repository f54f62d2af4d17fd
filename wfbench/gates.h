#ifndef WFBENCH_GATES_H_
#define WFBENCH_GATES_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wfbench {

// Subject -> (documents with a positive mention, with a negative mention).
using SubjectCounts = std::map<std::string, std::pair<size_t, size_t>>;

// The mining answer gate: every subject's counts from the offline index
// (SentimentQueryService) must equal the ones the query-time pipeline
// (RuntimeSentimentQueryService) computes anew, and no miner may
// have failed. Returns one line per violation; empty means the gate passed.
std::vector<std::string> CheckMineAgreement(const SubjectCounts& offline,
                                            const SubjectCounts& runtime,
                                            uint64_t miner_errors);

// The query answer gate: every OK reply must carry exactly the bytes a
// sequential pass produced for its subject during set-up. Subjects outside
// the reference set are unique no-hit subjects; their expected payload is
// the no-hit template with its subject field replaced. Thread-safe (const).
class PayloadGate {
 public:
  PayloadGate(std::map<std::string, std::string> reference,
              const std::string& no_hit_template);

  bool Check(const std::string& subject, const std::string& payload) const;
  size_t subjects() const { return reference_.size(); }

 private:
  std::map<std::string, std::string> reference_;
  std::vector<std::pair<std::string, std::string>> no_hit_fields_;
};

}  // namespace wfbench

#endif  // WFBENCH_GATES_H_
