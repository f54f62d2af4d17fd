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

common::Result<std::string> DataStore::GetRecord(const std::string& id) const {
  return lsm_.Get(id);
}

common::Result<Entity> DataStore::Get(const std::string& id) const {
  WF_ASSIGN_OR_RETURN(std::string record, GetRecord(id));
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
  // Length-prefixed canonical text records (Entity::Serialize), in the
  // merged sorted sweep's order.
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

}  // namespace wf::platform
