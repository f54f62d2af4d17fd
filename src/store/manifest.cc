#include "store/manifest.h"

#include <string_view>

#include "common/durable_file.h"
#include "common/string_util.h"

namespace wf::store {

namespace {

constexpr uint32_t kManifestVersion = 1;

common::Status CorruptManifest(const std::string& path,
                               const std::string& detail) {
  return common::Status::Corruption("manifest " + path + ": " + detail);
}

}  // namespace

common::Status SaveManifest(const std::string& path, const ManifestData& data,
                            common::StorageFaultInjector* injector) {
  std::string payload = common::StrFormat(
      "wfman 1\nnext %llu\n",
      static_cast<unsigned long long>(data.next_segment_id));
  for (const SegmentMeta& seg : data.segments) {
    payload += common::StrFormat(
        "seg %llu %llu %llu\n", static_cast<unsigned long long>(seg.id),
        static_cast<unsigned long long>(seg.records),
        static_cast<unsigned long long>(seg.bytes));
  }
  return common::WriteSnapshotFile(path, common::kSnapKindManifest,
                                   kManifestVersion, payload, injector);
}

common::Result<ManifestData> LoadManifest(const std::string& path) {
  WF_ASSIGN_OR_RETURN(std::string payload, common::ReadSnapshotFile(
                                               path, common::kSnapKindManifest,
                                               kManifestVersion));
  std::vector<std::string> lines = common::Split(payload, "\n");
  if (lines.size() < 2 || lines[0] != "wfman 1") {
    return CorruptManifest(path, "bad header");
  }
  ManifestData data;
  std::string_view next[2];
  if (!common::SplitInto(lines[1], ' ', next) || next[0] != "next") {
    return CorruptManifest(path, "bad next-id line");
  }
  if (!common::ParseUint64(next[1], &data.next_segment_id)) {
    return CorruptManifest(path, "bad next id");
  }
  for (size_t i = 2; i < lines.size(); ++i) {
    std::string_view parts[4];
    if (!common::SplitInto(lines[i], ' ', parts) || parts[0] != "seg") {
      return CorruptManifest(path, "bad segment line");
    }
    SegmentMeta meta;
    if (!common::ParseUint64(parts[1], &meta.id)) {
      return CorruptManifest(path, "bad segment id");
    }
    if (!common::ParseUint64(parts[2], &meta.records)) {
      return CorruptManifest(path, "bad segment record count");
    }
    if (!common::ParseUint64(parts[3], &meta.bytes)) {
      return CorruptManifest(path, "bad segment byte count");
    }
    if (meta.id >= data.next_segment_id) {
      return CorruptManifest(path, "segment id not below next id");
    }
    data.segments.push_back(meta);
  }
  return data;
}

}  // namespace wf::store
