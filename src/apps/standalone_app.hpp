// Framework for the four standalone applications (paper §VI-A: Netflix,
// DNA Assembly, Page View Count, Inverted Index).
//
// An app is defined by its record parser (`map_record`, emitting KV pairs)
// plus its bucket organization and combiner. It runs on the engines of the
// registry (apps/engine.hpp), which see it through AppInfo exactly as they
// see a MapReduce app; every engine calls map_record, so their result
// checksums must agree — that equivalence is property-tested.
#pragma once

#include <string>
#include <string_view>

#include "core/entry_layout.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::apps {

class StandaloneApp {
 public:
  virtual ~StandaloneApp() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  // Key into table1_bytes() for the paper's dataset sizes.
  [[nodiscard]] virtual const char* table1_key() const noexcept = 0;
  [[nodiscard]] virtual core::Organization organization() const noexcept = 0;
  // Required when organization() == kCombining.
  [[nodiscard]] virtual core::CombineFn combiner() const noexcept {
    return nullptr;
  }
  // Unused by engines; kept because jobbench/outside_trace.hpp overrides it.
  [[nodiscard]] virtual bool combiner_assoc_comm() const noexcept {
    return false;
  }
  // True when the record parser takes long data-dependent branch paths that
  // serialize GPU warps (the paper's Inverted Index: "a long switch-case
  // block in its core logic, which causes a high degree of thread
  // divergence", §VI-B). Counted per record into the divergence term.
  [[nodiscard]] virtual bool divergent_parse() const noexcept { return false; }

  // Generates a synthetic input of roughly `bytes` bytes.
  [[nodiscard]] virtual std::string generate(std::size_t bytes,
                                             std::uint64_t seed) const = 0;

  // Parses one record and emits its KV pairs. Must emit deterministically
  // (same record -> same emission sequence): SEPO re-executions rely on it.
  virtual void map_record(std::string_view body,
                          mapreduce::Emitter& em) const = 0;
};

// The concrete apps.
class PageViewCountApp final : public StandaloneApp {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "Page View Count";
  }
  [[nodiscard]] const char* table1_key() const noexcept override {
    return "pvc";
  }
  [[nodiscard]] core::Organization organization() const noexcept override {
    return core::Organization::kCombining;
  }
  [[nodiscard]] core::CombineFn combiner() const noexcept override {
    return core::combine_sum_u64;
  }
  [[nodiscard]] std::string generate(std::size_t bytes,
                                     std::uint64_t seed) const override;
  void map_record(std::string_view body,
                  mapreduce::Emitter& em) const override;
};

class InvertedIndexApp final : public StandaloneApp {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "Inverted Index";
  }
  [[nodiscard]] const char* table1_key() const noexcept override {
    return "ii";
  }
  [[nodiscard]] core::Organization organization() const noexcept override {
    return core::Organization::kMultiValued;
  }
  [[nodiscard]] bool divergent_parse() const noexcept override { return true; }
  [[nodiscard]] std::string generate(std::size_t bytes,
                                     std::uint64_t seed) const override;
  void map_record(std::string_view body,
                  mapreduce::Emitter& em) const override;
};

class DnaAssemblyApp final : public StandaloneApp {
 public:
  static constexpr std::size_t kK = 16;  // k-mer length

  [[nodiscard]] const char* name() const noexcept override {
    return "DNA Assembly";
  }
  [[nodiscard]] const char* table1_key() const noexcept override {
    return "dna";
  }
  [[nodiscard]] core::Organization organization() const noexcept override {
    return core::Organization::kCombining;
  }
  [[nodiscard]] core::CombineFn combiner() const noexcept override {
    // <k-mer, edges>: edge sets merge by OR (Meraculous-style extension
    // bitmask: bits 0-3 = predecessor base, bits 4-7 = successor base).
    return core::combine_or_u32;
  }
  [[nodiscard]] std::string generate(std::size_t bytes,
                                     std::uint64_t seed) const override;
  void map_record(std::string_view body,
                  mapreduce::Emitter& em) const override;
};

class NetflixApp final : public StandaloneApp {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "Netflix";
  }
  [[nodiscard]] const char* table1_key() const noexcept override {
    return "netflix";
  }
  [[nodiscard]] core::Organization organization() const noexcept override {
    return core::Organization::kCombining;
  }
  [[nodiscard]] core::CombineFn combiner() const noexcept override {
    return core::combine_sum_f64;  // sum per-movie similarity contributions
  }
  [[nodiscard]] std::string generate(std::size_t bytes,
                                     std::uint64_t seed) const override;
  void map_record(std::string_view body,
                  mapreduce::Emitter& em) const override;
};

}  // namespace sepo::apps
