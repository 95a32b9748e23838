// Machine-readable metrics export (DESIGN.md "Telemetry & tracing",
// EXPERIMENTS.md "BENCH_*.json").
//
// Serializes the measurement types the harness produces — counter
// snapshots, PCIe meters, serialization inputs, the timeline summary,
// per-iteration SEPO profiles, and whole RunResults — into a stable JSON
// schema, so benches and the CLI can emit reports that are diffable across
// PRs (sepo_cli metrics-diff) instead of only human-readable tables.
//
// Schema sketch (schema_version 9):
//   {
//     "schema_version": 9,
//     "tool": "fig6_speedup",
//     "runs": [
//       { "app": "...", "impl": "sepo-gpu", "sim_seconds": ...,
//         "serialization_s": ...,   // hot-lock term inside sim_seconds
//         "wall_seconds_host": ...,
//         "host": { "lock_contended": N, "atomic_retries": N },
//         "iterations": N, "keys": N,
//         "table_bytes": N, "heap_bytes": N, "checksum_hex": "....",
//         "stats": { <one field per simulated RunStats counter> },
//         "pcie": {...}, "serialization": {...},
//         "timeline": { "compute_busy": s, "h2d_busy": s, "d2h_busy": s,
//                       "remote_busy": s, "total": s, "commands": N },
//         "faults": { "compute": { "faults": N, "retries": N,
//                                  "backoff_s": s }, "h2d": {...},
//                     "d2h": {...}, "remote": {...},
//                     "total_faults": N, "total_backoff_s": s },
//         "error": { "kind": "...", "message": "..." },   // only on failure
//         "iteration_profiles": [ {...}, ... ],
//         "timeseries": [ { "sim_ts": s, "iteration": N,
//                           "pages_total": N, "pages_free": N,
//                           "pages_seized": N, "pages_used_peak": N,
//                           "resident_entry_bytes": N,
//                           "staging_slots": N, "staging_busy": N,
//                           "engines": { "compute": { "end": s, "busy": s },
//                                        "h2d": {...}, "d2h": {...},
//                                        "remote": {...} } }, ... ],
//         "bucket_histogram": [N, ...],
//         ...caller extras... }
//     ],
//     "tables": { "<name>": [ {<header>: <cell>, ...}, ... ] }
//   }
//
// Schema history:
//   v9  adds "pages_used_peak" to each timeseries sample: the pages the
//       table held just before the iteration's flush (pages_free is read
//       after it, when a spilling run has returned every page).
//   v8  one simulated clock: adds "serialization_s", the hot-lock term, and
//       drops the v2 closed-form cross-check total and its per-term
//       breakdown object (whose terms equalled the timeline busy totals).
//       On a run with timeline commands, sim_seconds == timeline.total +
//       serialization_s (metrics-check asserts it).
//   v7  host-measured counters leave "stats": lock_contended and
//       atomic_retries depend on thread scheduling, not on (input, config,
//       seed), so they move to a per-run "host" object beside
//       wall_seconds_host. metrics-diff compares the simulated "stats" and
//       never the "host" object.
//   v6  one insert path: drops the v5 batched-insert totals object (the
//       batched insert pipeline is gone), and GPU "sim_seconds" no longer
//       prices the measured host lock contention / atomic retries (the
//       counters are still reported in "stats"). metrics-diff compares the
//       shared fields across v3..v6 with a warning.
//   v5  batched inserts: adds a per-run object of lifetime totals of the
//       per-worker combining-buffer insert pipeline (wall-clock-side
//       counters; the simulated "stats" stayed bit-identical between scalar
//       and batched runs).
//   v4  flight recorder: adds the "timeseries" array — one occupancy sample
//       per SEPO iteration boundary (gpusim::OccupancySample: page pool
//       used/free/seized, staging-ring slot states, per-engine clock/busy),
//       always collected on SEPO paths, empty on baselines without the
//       iteration protocol. v3 files stay diffable: metrics-diff compares
//       the shared fields across {v3, v4} with a warning.
//   v3  fault injection: adds per-engine fault/retry counters and backoff
//       seconds (the "faults" object), the optional "error" object for runs
//       that failed structurally (typed RunError), and the fault counters
//       appended to SEPO_STATS_FIELDS inside "stats".
//   v2  discrete-event timeline: adds the "timeline" object (per-resource
//       busy seconds, makespan "total" equal to the scheduled end of the
//       last command, and the scheduled command count), plus a closed-form
//       cross-check total and its per-term breakdown (both dropped in v8).
//       GPU runs' "sim_seconds" is now the timeline makespan plus the
//       serialization term.
//   v1  initial schema.
//
// Counter fields are generated from SEPO_STATS_FIELDS, so the serializer
// cannot drift from the counter set.
#pragma once

#include <string>
#include <string_view>

#include "apps/harness.hpp"
#include "common/table_printer.hpp"
#include "core/iteration_profile.hpp"
#include "obs/json.hpp"

namespace sepo::obs {

inline constexpr int kMetricsSchemaVersion = 9;

// True for the RunStats counters the host measures rather than simulates
// (lock_contended, atomic_retries): they depend on thread scheduling, so a
// run writes them in its "host" object, not in "stats".
[[nodiscard]] bool is_host_counter(std::string_view name) noexcept;

// Schema of BENCH_host.json, the *wall-clock* benchmark file written by
// bench/host_perf (distinct from the simulated-time metrics schema above):
//   { schema_version, tool: "host_perf", command, workers, tiny,
//     fingerprint: { hardware_threads, workers, build_type, compiler,
//                    commit },
//     benches: [ { name, items, reps, wall_seconds, ops_per_sec } ] }
// Validated by `sepo_cli bench-check`, compared by `sepo_cli bench-diff`.
// v2 added the fingerprint.
inline constexpr int kBenchSchemaVersion = 2;


// Relative-epsilon float equality for cross-platform metrics comparison.
// Two v4 files produced from the same run on different platforms can differ
// in the last couple of double bits (libm, FMA contraction, summation
// order); treating those as drift makes `metrics-diff` cry wolf. Values
// within `rel_eps` of the larger magnitude compare equal; exact equality
// (including both zero) always does.
[[nodiscard]] bool nearly_equal(double a, double b,
                                double rel_eps = 1e-9) noexcept;

// The simulated counters of `s`; the host-measured ones are left out.
[[nodiscard]] Json to_json(const gpusim::StatsSnapshot& s);
[[nodiscard]] Json to_json(const gpusim::PcieSnapshot& p);
[[nodiscard]] Json to_json(const gpusim::SerializationInputs& s);
[[nodiscard]] Json to_json(const gpusim::TimelineSummary& t);
[[nodiscard]] Json to_json(const gpusim::FaultSummary& f);
[[nodiscard]] Json to_json(const core::IterationProfile& p);
[[nodiscard]] Json to_json(const gpusim::OccupancySample& s);
[[nodiscard]] Json to_json(const apps::RunResult& r);

// Rows of a TablePrinter as an array of {header: cell} objects — the CSV/
// JSON passthrough that keeps printed bench tables and metrics files from
// diverging.
[[nodiscard]] Json table_to_json(const TablePrinter& t);

// Accumulates runs (and optional rendered tables) and writes one metrics
// file. `extra` lets callers attach context (dataset, input_bytes, ...) to
// a run; extras merge into the run object after the standard fields.
class MetricsReport {
 public:
  explicit MetricsReport(std::string tool) : tool_(std::move(tool)) {}

  void add_run(std::string_view app, const apps::RunResult& r,
               Json extra = Json());
  void add_table(std::string name, const TablePrinter& t);
  void set_field(std::string key, Json value);  // top-level extras

  [[nodiscard]] std::size_t run_count() const noexcept {
    return runs_.size();
  }
  [[nodiscard]] Json to_json() const;
  bool write_file(const std::string& path, std::string* error = nullptr) const;

 private:
  std::string tool_;
  Json::Array runs_;
  Json tables_ = Json::object();
  Json extras_ = Json::object();
};

// Output destinations from argv + environment. Recognized and *removed*
// from argv (so existing option parsers never see them):
//   --metrics-out=FILE | --metrics-out FILE   (else $SEPO_METRICS_OUT)
//   --trace-out=FILE   | --trace-out FILE     (else $SEPO_TRACE_OUT)
//   --journal-out=FILE | --journal-out FILE   (else $SEPO_JOURNAL_OUT)
// An empty path means disabled.
struct OutputOptions {
  std::string metrics_path;
  std::string trace_path;
  std::string journal_path;

  [[nodiscard]] bool metrics_enabled() const noexcept {
    return !metrics_path.empty();
  }
  [[nodiscard]] bool trace_enabled() const noexcept {
    return !trace_path.empty();
  }
  [[nodiscard]] bool journal_enabled() const noexcept {
    return !journal_path.empty();
  }

  static OutputOptions from_args(int& argc, char** argv);
};

}  // namespace sepo::obs
