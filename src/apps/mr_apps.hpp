// The three MapReduce applications (paper §VI-A: Word Count, Geo Location,
// Patent Citation). They run on the engines of the registry
// (apps/engine.hpp): our SEPO-based MapReduce runtime (§V), the
// Phoenix++-style CPU runtime (the Figure 6 baseline), the MapCG-style GPU
// runtime (the Table II comparator), and the CPU and pinned tables.
#pragma once

#include <string>
#include <string_view>

#include "mapreduce/spec.hpp"

namespace sepo::apps {

struct MrApp {
  const char* name;
  const char* table1_key;
  mapreduce::Mode mode;
  std::string (*generate)(std::size_t bytes, std::uint64_t seed);
  mapreduce::MapFn map;
  core::CombineFn combine;  // kMapReduce only

  [[nodiscard]] mapreduce::MrSpec spec() const {
    return {.mode = mode, .map = map, .combine = combine};
  }
};

// <word, 1>, MAP_REDUCE (sum).
[[nodiscard]] const MrApp& word_count_app();
// <geo cell, article id>, MAP_GROUP.
[[nodiscard]] const MrApp& geo_location_app();
// <cited patent, citing patent>, MAP_GROUP.
[[nodiscard]] const MrApp& patent_citation_app();

}  // namespace sepo::apps
