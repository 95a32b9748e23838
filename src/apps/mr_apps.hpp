// The three MapReduce applications (paper §VI-A: Word Count, Geo Location,
// Patent Citation) and their execution paths on:
//   * our SEPO-based MapReduce runtime (§V),
//   * the Phoenix++-style CPU runtime (the Figure 6 baseline), and
//   * the MapCG-style GPU runtime (the Table II comparator).
#pragma once

#include <string>
#include <string_view>

#include "apps/harness.hpp"
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

// Runs on our SEPO MapReduce runtime (§V): the mode picks the table shape
// (mapreduce::table_shape) and the job is the same SEPO run as sepo-gpu's.
[[nodiscard]] RunResult run_mr_sepo(const MrApp& app, std::string_view input,
                                    const GpuConfig& cfg = {});
// Runs on the Phoenix++-style CPU baseline.
[[nodiscard]] RunResult run_mr_phoenix(const MrApp& app,
                                       std::string_view input,
                                       const CpuConfig& cfg = {});
// Runs on the MapCG-style GPU baseline. When input + table exceed device
// memory (the §VI-C failure mode) it returns a device_out_of_memory RunError
// rather than throwing.
[[nodiscard]] RunResult run_mr_mapcg(const MrApp& app, std::string_view input,
                                     const GpuConfig& cfg = {});

}  // namespace sepo::apps
