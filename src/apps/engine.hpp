// The engine registry (DESIGN.md §2): the one dispatch seam between "which
// app, which implementation" and the one run function.
//
// An AppInfo names one registered application (standalone or MapReduce). An
// engine is one row of fixed fields (EngineRow): where its table lives
// (placement), how records reach that table (staging), and whether the map
// threads share it (containers). The paper's comparators differ from SEPO
// in exactly these fields (§VI, §VII), so one function, run_engine, runs
// every row, handling each field value in one place. Every consumer
// (sepo_cli run/compare/list, the bench binaries, the examples, the
// cross-validation tests) resolves apps and engines here instead of keeping
// its own string if/else chain.
//
// All rows are one static table in engines.cpp, next to run_engine —
// deliberately one translation unit, because self-registration statics
// spread across a static library get dropped by the linker unless something
// in each TU is referenced. Registration order is display order.
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

// Where an engine's table lives, which also fixes what a full table does.
enum class Placement : std::uint8_t {
  // SEPO table in device memory; a full heap postpones the record (§III).
  kDeviceSepo,
  // Multi-valued chained table in one device arena, reduced after the map;
  // a full arena fails the run (MapCG, §VI-C).
  kDeviceNoSepo,
  // Chained table in CPU memory (§VI-B).
  kHost,
  // Chained table in pinned CPU memory; every entry access from a kernel is
  // a PCIe transaction (§VI-D).
  kHostOverPcie,
  // Pair store in pinned CPU memory behind a device fingerprint index
  // (Stadium, §VII).
  kHostIndexed,
  // One table in demand-paged unified memory, replayed through an LRU page
  // cache (§VI-D, Table III).
  kDemandPaged,
};

// How records reach the table.
enum class Staging : std::uint8_t {
  kNone,      // the host maps the records in place
  kBulkCopy,  // the whole input crosses PCIe before one map kernel
  kRing,      // BigKernel chunks through a device staging ring
};

// Whether the map threads share one table.
enum class Containers : std::uint8_t {
  kShared,
  // Private per-thread tables, folded into one after the map (Phoenix++).
  kPerThread,
};

// One registered implementation: a row of the engine table in engines.cpp.
// Engines differ only in these fields; run_engine reads them.
struct EngineRow {
  const char* key;          // registry name; the RunResult's impl
  const char* description;  // one line for `sepo_cli engines`
  Placement placement;
  Staging staging;
  Containers containers;
  bool standalone;  // runs StandaloneApp workloads
  bool mapreduce;   // runs MrApp workloads

  [[nodiscard]] const char* name() const noexcept { return key; }
  // Builds a virtual GPU (device + PCIe bus).
  [[nodiscard]] bool simulated_device() const noexcept {
    return placement != Placement::kHost &&
           placement != Placement::kDemandPaged;
  }
  // Honors GpuConfig's trace, journal and fault hooks: the rows whose input
  // lands in device memory through ExecContext::stage_h2d. Stadium's copy
  // bypasses it (its input never lands in device memory).
  [[nodiscard]] bool telemetry() const noexcept {
    return staging != Staging::kNone && placement != Placement::kHostIndexed;
  }
  // Whether this row can run `app`: its kind flag, and for the paging replay
  // the one shape its trace models, <key, +1> combining inserts.
  [[nodiscard]] bool supports(const AppInfo& app) const;
  // run_engine(*this, ...).
  [[nodiscard]] RunResult run(const AppInfo& app, std::string_view input,
                              const EngineConfig& cfg) const;
};
// The name every consumer uses for a registered row.
using Engine = EngineRow;

// The one run function: runs `app` over `input` as `row` describes, and
// stamps the row's key on the result as its impl (and therefore the "impl"
// field in metrics files).
[[nodiscard]] RunResult run_engine(const EngineRow& row, const AppInfo& app,
                                   std::string_view input,
                                   const EngineConfig& cfg);

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
