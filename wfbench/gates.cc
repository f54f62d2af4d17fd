#include "gates.h"

#include "common/string_util.h"
#include "platform/vinci.h"

namespace wfbench {

std::vector<std::string> CheckMineAgreement(const SubjectCounts& offline,
                                            const SubjectCounts& runtime,
                                            uint64_t miner_errors) {
  std::vector<std::string> violations;
  if (miner_errors > 0) {
    violations.push_back(wf::common::StrFormat(
        "%llu miner errors", static_cast<unsigned long long>(miner_errors)));
  }
  if (offline.empty()) violations.push_back("no subject has an indexed hit");
  for (const auto& [subject, counts] : offline) {
    auto it = runtime.find(subject);
    if (it == runtime.end()) {
      violations.push_back("no runtime answer for '" + subject + "'");
    } else if (it->second != counts) {
      violations.push_back(wf::common::StrFormat(
          "'%s': offline +%zu/-%zu, runtime +%zu/-%zu", subject.c_str(),
          counts.first, counts.second, it->second.first, it->second.second));
    }
  }
  for (const auto& [subject, counts] : runtime) {
    if (offline.count(subject) == 0) {
      violations.push_back("no offline answer for '" + subject + "'");
    }
  }
  return violations;
}

PayloadGate::PayloadGate(std::map<std::string, std::string> reference,
                         const std::string& no_hit_template)
    : reference_(std::move(reference)),
      no_hit_fields_(wf::platform::DecodeMessage(no_hit_template)) {}

bool PayloadGate::Check(const std::string& subject,
                        const std::string& payload) const {
  auto it = reference_.find(subject);
  if (it != reference_.end()) return payload == it->second;
  std::vector<std::pair<std::string, std::string>> expected = no_hit_fields_;
  bool has_subject = false;
  for (auto& [key, value] : expected) {
    if (key == "subject") {
      value = subject;
      has_subject = true;
    }
  }
  return has_subject && payload == wf::platform::EncodeMessage(expected);
}

}  // namespace wfbench
