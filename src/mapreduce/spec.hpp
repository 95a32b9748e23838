// MapReduce application spec shared by our runtime (§V) and the baseline
// runtimes (Phoenix++-style CPU, MapCG-style GPU).
//
// "The runtime leaves the core logic of the application to be implemented by
// the application programmer inside the map and reduce/combine functions."
// Map functions receive one input record and emit zero or more KV pairs
// through an Emitter; under SEPO an emit may be declined (kPostpone), in
// which case the map instance must stop and the whole record is re-executed
// in a later iteration (already-accepted leading emissions are skipped via
// the per-record resume counter, common/progress.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "core/entry_layout.hpp"
#include "core/sepo.hpp"

namespace sepo::mapreduce {

// §V: "Our MapReduce runtime can be configured by the programmer to work in
// the MAP_REDUCE or MAP_GROUP modes".
enum class Mode : std::uint8_t {
  kMapReduce = 0,  // combining organization + reduce/combine callback
  kMapGroup = 1,   // multi-valued organization, <key, values> output
};

[[nodiscard]] constexpr const char* to_string(Mode m) noexcept {
  return m == Mode::kMapReduce ? "MAP_REDUCE" : "MAP_GROUP";
}

// Sink for KV pairs produced by a map instance.
class Emitter {
 public:
  virtual ~Emitter() = default;

  // Returns kPostpone when the pair could not be stored now; the map
  // function must then return immediately without further emits.
  virtual core::Status emit(std::string_view key,
                            std::span<const std::byte> value) = 0;

  core::Status emit_u64(std::string_view key, std::uint64_t v) {
    return emit(key, std::as_bytes(std::span{&v, 1}));
  }
};

// One map instance per input record.
using MapFn = std::function<void(std::string_view record, Emitter&)>;

// The SEPO table shape a mode selects (§V): MAP_REDUCE embeds the reduce into
// the map via the combining organization and `combine`; MAP_GROUP groups
// values via the multi-valued organization and ignores `combine`. Throws
// std::invalid_argument for MAP_REDUCE without a combine.
struct TableShape {
  core::Organization org;
  core::CombineFn combiner;
};
[[nodiscard]] inline TableShape table_shape(Mode mode,
                                            core::CombineFn combine) {
  if (mode == Mode::kMapGroup)
    return {core::Organization::kMultiValued, nullptr};
  if (combine == nullptr)
    throw std::invalid_argument("MAP_REDUCE mode requires spec.combine");
  return {core::Organization::kCombining, combine};
}

struct MrSpec {
  Mode mode = Mode::kMapReduce;
  MapFn map;
  // Reduce/combine callback for kMapReduce ("the reduce phase is embedded
  // into the map phase", §V). Ignored for kMapGroup.
  core::CombineFn combine = nullptr;
};

}  // namespace sepo::mapreduce
