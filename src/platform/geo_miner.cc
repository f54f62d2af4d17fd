#include "platform/geo_miner.h"

#include <set>

#include "common/string_util.h"

namespace wf::platform {

namespace {

// A compact gazetteer: region -> surface forms. Enough to exercise the
// pipeline; production deployments load a real gazetteer the same way.
struct GazetteerEntry {
  const char* region;
  const char* variants;  // ';'-separated
};

constexpr GazetteerEntry kGazetteer[] = {
    {"united states", "United States;U.S.;USA;America"},
    {"united kingdom", "United Kingdom;U.K.;Britain;England"},
    {"germany", "Germany;Berlin"},
    {"france", "France;Paris"},
    {"japan", "Japan;Tokyo"},
    {"china", "China;Beijing;Shanghai"},
    {"india", "India;Mumbai;Delhi"},
    {"brazil", "Brazil;Sao Paulo"},
    {"canada", "Canada;Toronto;Ottawa"},
    {"texas", "Texas;Houston;Dallas"},
    {"california", "California;San Jose;San Francisco;Los Angeles"},
    {"new york", "New York;Manhattan"},
    {"gulf of mexico", "Gulf of Mexico"},
    {"north sea", "North Sea"},
};

}  // namespace

GeoContextMiner::GeoContextMiner() {
  int id = 0;
  for (const GazetteerEntry& g : kGazetteer) {
    spot::SynonymSet set;
    set.id = id;
    std::vector<std::string> variants = common::SplitExact(g.variants, ";");
    set.canonical = variants[0];
    set.variants.assign(variants.begin() + 1, variants.end());
    region_of_set_[id] = g.region;
    gazetteer_.AddSynonymSet(set);
    ++id;
  }
}

std::string GeoContextMiner::GeoConceptToken(const std::string& region) {
  std::string out = common::ToLower(region);
  for (char& c : out) {
    if (c == ' ') c = '_';
  }
  return "geo/" + out;
}

common::Status GeoContextMiner::Process(Entity& entity,
                                        const MineContext& context) {
  const text::TokenStream& tokens = context.analysis.tokens;
  std::set<std::string> regions;
  for (const spot::SubjectSpot& spot : gazetteer_.Spot(tokens)) {
    // .at(): every synset id came from the gazetteer, and operator[] on a
    // shared map would be a write from concurrent mining workers.
    const std::string& region = region_of_set_.at(spot.synset_id);
    AnnotationSpan span;
    span.begin = tokens[spot.begin_token].begin;
    span.end = tokens[spot.end_token - 1].end;
    span.attrs["region"] = region;
    entity.AddAnnotation("geo", std::move(span));
    regions.insert(region);
  }
  for (const std::string& region : regions) {
    entity.AddConceptToken(GeoConceptToken(region));
  }
  return common::Status::Ok();
}

}  // namespace wf::platform
