// Pluggable engine registry (DESIGN.md §2): the one dispatch seam between
// "which app, which implementation" and the run paths.
//
// An AppInfo names one registered application (standalone or MapReduce); an
// Engine is one implementation that can run it — the SEPO system itself or
// one of the paper's comparators. Every consumer (sepo_cli run/compare/list,
// the bench binaries, the examples, the cross-validation tests) resolves
// apps and engines here instead of keeping its own string if/else chain, so
// adding a backend is one registration, not a cross-cutting edit.
//
// All engines are rows of one static table in engines.cpp, next to their run
// paths, one per engine — deliberately one translation unit, because
// self-registration statics spread across a static library get dropped by
// the linker unless something in each TU is referenced. Registration order
// is display order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/harness.hpp"
#include "apps/mr_apps.hpp"
#include "apps/standalone_app.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::apps {

// One registered application. Exactly one of `standalone` / `mr` is set.
// The accessors below are the only code that branches on the two app kinds:
// an engine sees an app as a table shape (organization + combiner) plus a
// map function, which is all the paper's MapReduce runtime adds to the SEPO
// table (§V). Engines reach the map function only through the AppInfo they
// are handed, so a caller may pass a copy whose map is wrapped.
struct AppInfo {
  const char* key;    // CLI name, e.g. "pvc" (the Table I key)
  const char* title;  // paper name, e.g. "Page View Count"
  const StandaloneApp* standalone = nullptr;
  const MrApp* mr = nullptr;

  [[nodiscard]] bool is_mapreduce() const noexcept { return mr != nullptr; }
  // Table I row key for dataset sizing (apps/datagen.hpp table1_bytes).
  [[nodiscard]] const char* table1_key() const noexcept {
    return is_mapreduce() ? mr->table1_key : standalone->table1_key();
  }
  [[nodiscard]] std::string generate(std::size_t bytes,
                                     std::uint64_t seed) const {
    return is_mapreduce() ? mr->generate(bytes, seed)
                          : standalone->generate(bytes, seed);
  }
  // Bucket organization of the app's table; a MapReduce mode selects it
  // through mapreduce::table_shape.
  [[nodiscard]] core::Organization organization() const {
    return is_mapreduce() ? mapreduce::table_shape(mr->mode, mr->combine).org
                          : standalone->organization();
  }
  // Combiner of a combining table; null otherwise.
  [[nodiscard]] core::CombineFn combiner() const {
    return is_mapreduce()
               ? mapreduce::table_shape(mr->mode, mr->combine).combiner
               : standalone->combiner();
  }
  // Whether each record's bytes count toward the divergence term
  // (StandaloneApp::divergent_parse; no MapReduce app diverges).
  [[nodiscard]] bool divergent_parse() const noexcept {
    return !is_mapreduce() && standalone->divergent_parse();
  }
  // Parses one record and emits its KV pairs.
  void map(std::string_view body, mapreduce::Emitter& em) const {
    if (is_mapreduce())
      mr->map(body, em);
    else
      standalone->map_record(body, em);
  }
};

// Registered apps in display order (standalone first, then MapReduce).
[[nodiscard]] const std::vector<const AppInfo*>& all_apps();
// Lookup by CLI key; nullptr when unknown.
[[nodiscard]] const AppInfo* find_app(std::string_view key);

// Configuration an engine may draw from. GPU-side engines read `gpu`
// (device size, chunking, trace/journal/faults); host-side engines read
// `cpu`. Unused halves are ignored.
struct EngineConfig {
  GpuConfig gpu;
  CpuConfig cpu;
};

// One registered implementation: a row of the engine table in engines.cpp.
// Engines differ only in these fields; the run function is the engine's
// whole run path.
class Engine {
 public:
  // Capability flags: what the engine can run and which GpuConfig telemetry
  // hooks it honors. Consumers gate per-run wiring (trace recorder, journal
  // dump, fault flags) on these instead of matching impl names.
  struct Caps {
    bool standalone = false;       // runs StandaloneApp workloads
    bool mapreduce = false;        // runs MrApp workloads
    bool simulated_device = false; // builds a virtual GPU (device + PCIe bus)
    bool trace = false;            // honors GpuConfig.trace
    bool journal = false;          // honors GpuConfig.journal
    bool faults = false;           // honors GpuConfig.faults
  };
  using RunFn = RunResult (*)(const AppInfo& app, std::string_view input,
                              const EngineConfig& cfg);
  using SupportsFn = bool (*)(const AppInfo& app);

  constexpr Engine(const char* name, const char* description, Caps caps,
                   RunFn run, SupportsFn supports = nullptr) noexcept
      : name_(name), description_(description), caps_(caps), run_(run),
        supports_(supports) {}

  // Registry name; run() stamps it on the RunResult as its impl (and
  // therefore the "impl" field in metrics files).
  [[nodiscard]] const char* name() const noexcept { return name_; }
  // One-line description for `sepo_cli engines`.
  [[nodiscard]] const char* describe() const noexcept { return description_; }
  [[nodiscard]] Caps caps() const noexcept { return caps_; }

  // Whether this engine can run `app`: the Caps kind flags, narrowed by the
  // row's predicate when it has one (paging-sim).
  [[nodiscard]] bool supports(const AppInfo& app) const {
    const bool kind = app.is_mapreduce() ? caps_.mapreduce : caps_.standalone;
    return kind && (supports_ == nullptr || supports_(app));
  }

  [[nodiscard]] RunResult run(const AppInfo& app, std::string_view input,
                              const EngineConfig& cfg) const {
    RunResult r = run_(app, input, cfg);
    r.impl = name_;
    return r;
  }

 private:
  const char* name_;
  const char* description_;
  Caps caps_;
  RunFn run_;
  SupportsFn supports_;
};

// Registered engines in display order.
[[nodiscard]] const std::vector<const Engine*>& all_engines();
// Exact-name lookup; nullptr when unknown.
[[nodiscard]] const Engine* find_engine(std::string_view name);
// Alias-aware, app-aware lookup: "gpu" resolves to the SEPO engine matching
// the app's kind (sepo-gpu / sepo-mr), "mr" to sepo-mr; otherwise exact.
// nullptr when unknown.
[[nodiscard]] const Engine* resolve_engine(std::string_view name,
                                           const AppInfo& app);
// The reference implementation an app's digests are compared against:
// cpu for standalone apps, phoenix for MapReduce apps.
[[nodiscard]] const Engine* baseline_engine(const AppInfo& app);

}  // namespace sepo::apps
