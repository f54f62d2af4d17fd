#ifndef WF_PLATFORM_GEO_MINER_H_
#define WF_PLATFORM_GEO_MINER_H_

#include <string>

#include "platform/miner_framework.h"
#include "spot/spotter.h"

namespace wf::platform {

// Entity-level geographic-context miner (§2 lists a "geographic context
// discoverer" among WebFountain's entity-level miners; cf. McCurley 2002).
// Spots place names from a built-in gazetteer, annotates them in a "geo"
// layer, and emits "geo/<region>" conceptual tokens so queries can be
// scoped geographically.
class GeoContextMiner : public EntityMiner {
 public:
  GeoContextMiner();

  std::string name() const override { return "geo_context"; }
  common::Status Process(Entity& entity, const MineContext& context) override;

  // Conceptual token for a region ("geo/united_states").
  static std::string GeoConceptToken(const std::string& region);

 private:
  spot::Spotter gazetteer_;
  std::map<int, std::string> region_of_set_;
};

}  // namespace wf::platform

#endif  // WF_PLATFORM_GEO_MINER_H_
