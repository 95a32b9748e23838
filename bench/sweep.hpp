// Shared driver of the paper-table benches (fig6_speedup, fig7_pinned,
// table2_mapcg, table3_paging): one flag parser, one way to run an engine
// through the registry and check its digest against a reference run, and one
// metrics report per bench.
//
//   <bench> [--tiny] [--workers N] [--fault-* ...]
//           [--metrics-out=FILE] [--trace-out=FILE]
//
// --tiny selects the bench's small variant (the ctest fixtures use it);
// --workers N sizes every run's host pool (default: $SEPO_WORKERS, else the
// hardware concurrency); --fault-* flags (see sepo_cli usage) enable seeded
// fault injection on the GPU-side runs; --metrics-out writes every run's
// telemetry to one report that records the bench's command and worker count
// (EXPERIMENTS.md "BENCH_*.json"); --trace-out records the runs of every
// trace-capable engine onto one simulated timeline, one section per run.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "apps/engine.hpp"
#include "common/table_printer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sepo::bench {

// One engine run and the reference run of the same input it is checked
// against.
struct Pair {
  apps::RunResult run, ref;

  // How much faster `run` is than `ref` in simulated time.
  [[nodiscard]] double speedup() const {
    return ref.sim_seconds / run.sim_seconds;
  }
  // Neither run failed and the digests agree.
  [[nodiscard]] bool ok() const {
    return !run.error && !ref.error && run.checksum == ref.checksum;
  }
  // The table's results cell: a failed run's error kind, else "match" or
  // "MISMATCH".
  [[nodiscard]] const char* verdict() const;
};

class Sweep {
 public:
  // Parses the shared flags; an unknown or malformed one is reported on
  // stderr and exits the process with status 1.
  Sweep(const char* tool, int argc, char** argv);

  [[nodiscard]] bool tiny() const noexcept { return tiny_; }
  // The configuration the flags select: pool workers on both halves, fault
  // injection on the GPU half. Benches that size the device copy it.
  [[nodiscard]] const apps::EngineConfig& config() const noexcept {
    return cfg_;
  }
  // The bench's metrics report; it already records "command" and "workers".
  [[nodiscard]] obs::MetricsReport& report() noexcept { return report_; }

  // Runs `engine` on `input` with `cfg` and appends the run with `extra`,
  // unchecked.
  apps::RunResult run(const apps::AppInfo& app, const apps::Engine& engine,
                      std::string_view input, const apps::EngineConfig& cfg,
                      obs::Json extra);
  // Runs `engine`, then `ref`, on `input` with `cfg`, checks the pair and
  // appends both runs, each with `extra` plus the pair's "speedup" and
  // "digest_match".
  Pair run_pair(const apps::AppInfo& app, const apps::Engine& engine,
                const apps::Engine& ref, std::string_view input,
                const apps::EngineConfig& cfg, obs::Json extra);
  // Like run_pair against a reference run already appended: runs `engine`
  // only, checks it against `ref` and appends it.
  Pair run_against(const apps::AppInfo& app, const apps::Engine& engine,
                   const apps::RunResult& ref, std::string_view input,
                   const apps::EngineConfig& cfg, obs::Json extra);

  // Writes the metrics file (with `table` as tables.<table_name>) and the
  // trace file the flags ask for. Returns the exit status: 1 when a write
  // failed or any checked pair failed, else 0.
  int finish(const TablePrinter& table, const char* table_name);

 private:
  apps::RunResult execute(const apps::AppInfo& app, const apps::Engine& engine,
                          std::string_view input, apps::EngineConfig cfg,
                          const obs::Json& extra);
  // Counts `p` if it failed and returns `extra` plus its speedup and
  // digest_match.
  obs::Json checked(const Pair& p, obs::Json extra);

  bool tiny_ = false;
  apps::EngineConfig cfg_;
  obs::OutputOptions out_;
  obs::MetricsReport report_;
  std::unique_ptr<obs::TraceRecorder> rec_;
  int failed_pairs_ = 0;
};

}  // namespace sepo::bench
