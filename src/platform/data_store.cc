#include "platform/data_store.h"

#include <sstream>

#include "common/logging.h"

namespace wf::platform {

using ::wf::common::Status;

void DataStore::AttachMetrics(const obs::MetricsRegistry* metrics) {
  lsm_.AttachMetrics(metrics, "store");
}

common::Status DataStore::EnableSegments(
    const std::string& dir, const std::string& base,
    const store::LsmOptions& options,
    common::StorageFaultInjector* injector) {
  return lsm_.OpenSegments(dir, base, options, injector);
}

common::Status DataStore::Put(const Entity& entity) {
  return PutRecord(entity.id(), entity.EncodeRecord());
}

common::Status DataStore::PutRecord(const std::string& id,
                                    std::string_view record) {
  return lsm_.Insert(id, record);
}

common::Status DataStore::Upsert(const Entity& entity) {
  return lsm_.Put(entity.id(), entity.EncodeRecord());
}

common::Result<Entity> DataStore::Get(const std::string& id) const {
  WF_ASSIGN_OR_RETURN(std::string record, lsm_.Get(id));
  return Entity::DecodeRecord(record);
}

bool DataStore::Contains(const std::string& id) const {
  return lsm_.Contains(id);
}

common::Status DataStore::Delete(const std::string& id) {
  return lsm_.Delete(id);
}

common::Status DataStore::Update(const std::string& id,
                                 const std::function<void(Entity&)>& fn) {
  return lsm_.Update(id, [&fn](std::string* record) {
    WF_ASSIGN_OR_RETURN(Entity entity, Entity::DecodeRecord(*record));
    fn(entity);
    *record = entity.EncodeRecord();
    return Status::Ok();
  });
}

void DataStore::ForEach(const std::function<void(const Entity&)>& fn) const {
  // One Get per id, as the mining sweep reads: the tree's lock is held
  // for one lookup at a time, never while a record decodes or `fn` runs.
  for (const std::string& id : Ids()) {
    common::Result<Entity> entity = Get(id);
    // Deleted since Ids(). Any other failure is a record this process
    // wrote that no longer reads back.
    if (entity.status().code() == common::StatusCode::kNotFound) continue;
    WF_CHECK_OK(entity.status());
    fn(entity.value());
  }
}

size_t DataStore::size() const { return lsm_.size(); }

std::vector<std::string> DataStore::Ids() const {
  std::vector<std::string> out;
  out.reserve(lsm_.size());
  lsm_.ForEachKey([&out](const std::string& id) { out.push_back(id); });
  return out;
}

common::Status DataStore::Save(const std::string& path,
                               common::StorageFaultInjector* injector) const {
  // Length-prefixed canonical text records (Entity::Serialize) under the
  // checksummed snapshot envelope, written temp-then-rename. Records
  // stream from the merged sorted sweep, so the payload is a pure function
  // of the store's logical contents: a shard rebuilt from segments + WAL
  // replay saves the same bytes as the shard that never crashed, whatever
  // their segment layouts look like.
  std::ostringstream payload;
  WF_RETURN_IF_ERROR(lsm_.ForEachSorted(
      [&payload](const std::string&, const std::string& record) {
        WF_ASSIGN_OR_RETURN(Entity entity, Entity::DecodeRecord(record));
        const std::string text = entity.Serialize();
        payload << text.size() << "\n" << text;
        return Status::Ok();
      }));
  return common::WriteSnapshotFile(path, common::kSnapKindStore,
                                   /*version=*/1, payload.str(), injector);
}

common::Status DataStore::Load(const std::string& path) {
  if (lsm_.segmented()) {
    return Status::FailedPrecondition(
        "segment-mode store loads from its manifest, not a snapshot");
  }
  auto payload_or = common::ReadSnapshotFile(path, common::kSnapKindStore,
                                             /*version=*/1);
  if (!payload_or.ok()) return payload_or.status();
  std::istringstream in(payload_or.value());
  std::vector<Entity> loaded;
  std::string size_line;
  while (std::getline(in, size_line)) {
    if (size_line.empty()) continue;
    size_t n = 0;
    try {
      n = std::stoull(size_line);
    } catch (...) {
      return Status::Corruption("bad record size in " + path);
    }
    std::string record(n, '\0');
    in.read(record.data(), static_cast<std::streamsize>(n));
    if (static_cast<size_t>(in.gcount()) != n) {
      return Status::Corruption("truncated record in " + path);
    }
    auto entity = Entity::Deserialize(record);
    if (!entity.ok()) return entity.status();
    loaded.push_back(std::move(entity).value());
  }
  WF_RETURN_IF_ERROR(lsm_.ClearEphemeral());
  for (const Entity& entity : loaded) {
    WF_RETURN_IF_ERROR(lsm_.Put(entity.id(), entity.EncodeRecord()));
  }
  return Status::Ok();
}

}  // namespace wf::platform
