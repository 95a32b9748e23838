// Shared measurement harness for the engines (apps/engine.hpp): builds the
// virtual device, guards a run, and converts the recorded event counts into
// simulated time (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bigkernel/pipeline.hpp"
#include "common/hashing.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "core/iteration_profile.hpp"
#include "core/sepo_driver.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"
#include "gpusim/pcie.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::apps {

// GPU-side run configuration. Defaults model a card ~1/1000 the paper's
// GTX 780ti usable capacity (DESIGN.md scaling note): with ~20% consumed by
// static structures, the heap lands around 3 MB against inputs of 0.2-8 MB.
struct GpuConfig {
  std::size_t device_bytes = 4u << 20;
  std::size_t page_size = 8u << 10;
  std::uint32_t num_buckets = 1u << 14;
  // 32 bucket groups: enough allocation spread for lock distribution while
  // keeping active pages (groups x classes x page) well under the heap
  // (the §IV-A fragmentation side of the trade-off).
  std::uint32_t buckets_per_group = 512;
  std::size_t target_chunk_bytes = 224u << 10;  // BigKernel chunk size
  std::size_t num_staging_buffers = 2;
  std::size_t pool_workers = 0;  // 0 = hardware concurrency
  // Heap override: 0 = all remaining device memory (the default §IV-A
  // policy). Table III's memory sweep pins the heap explicitly.
  std::size_t heap_bytes = 0;
  // Basic-organization halt threshold (§IV-C footnote 5); the ablation bench
  // sweeps it.
  double basic_halt_frac = 0.5;
  // Telemetry hook (e.g. obs::TraceRecorder), installed on the run's
  // counters and bus. Null (the default) disables recording entirely;
  // recording never alters counters, so sim_seconds is identical either way.
  gpusim::TraceHook* trace = nullptr;
  // Fault injection (gpusim::FaultInjector). All rates zero (the default)
  // keeps the run bit-identical to a build without the injector.
  gpusim::FaultConfig faults;
  // Flight-recorder journal (gpusim::EventJournal), caller-owned so it can
  // be drained after a failed run. Null (the default) compiles every hook
  // site down to one false branch; results and metrics are bit-identical
  // either way (tests/journal_test.cpp).
  gpusim::EventJournal* journal = nullptr;
};

struct CpuConfig {
  std::uint32_t num_threads = 8;
  // CPU memory is unconstrained, so the baseline sizes its table for a load
  // factor around 1 (as a tuned CPU implementation would).
  std::uint32_t num_buckets = 1u << 17;
  std::size_t pool_workers = 0;
};

struct RunResult;

// One simulated-GPU run's execution state: virtual device, worker pool,
// counters, and the ExecContext wiring them together — with the GpuConfig's
// trace hook, flight-recorder journal, and fault injector installed. This is
// the ONE place per-run ExecContext setup happens; every simulated-device
// run path (sepo-gpu, sepo-mr, pinned, mapcg, stadium) builds one of these
// and runs its job through run(). The wall timer starts at construction.
class SimRun {
 public:
  explicit SimRun(const GpuConfig& cfg)
      : dev(cfg.device_bytes), pool(cfg.pool_workers), ctx(dev, pool, stats) {
    if (cfg.trace) ctx.set_trace(cfg.trace);
    if (cfg.journal) ctx.set_journal(cfg.journal);
    if (cfg.faults.enabled()) {
      faults_.emplace(cfg.faults);
      ctx.set_faults(&*faults_);
    }
  }

  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  // The one guarded run. Calls body(r), which builds the job's structures
  // (pipeline, tables, runtimes) and fills what only it knows — serial,
  // iterations, keys, digest — then fills counters, PCIe totals, simulated
  // times and wall clock. A runtime_error or bad_alloc thrown by body,
  // construction included, becomes a typed r.error (run_error_from); a
  // logic_error propagates.
  [[nodiscard]] RunResult run(const std::function<void(RunResult&)>& body);

  WallTimer timer;
  gpusim::Device dev;
  gpusim::ThreadPool pool;
  gpusim::RunStats stats;
  gpusim::ExecContext ctx;

 private:
  std::optional<gpusim::FaultInjector> faults_;
};

// How a run failed, when it failed in a way the implementation is expected
// to surface structurally (rather than abort or return a wrong table).
// SEPO degrades through postponement, so under memory pressure it simply
// takes more iterations; the pinned/MapCG/stadium baselines have no
// postponement story and report one of these instead.
struct RunError {
  enum class Kind {
    kNone = 0,
    kDeviceOutOfMemory,      // static/arena allocation exceeded the device
    kFaultRetriesExhausted,  // a faulted operation ran out of retries
    kNoProgress,             // driver stalled (iteration cap / zero progress)
  };
  Kind kind = Kind::kNone;
  std::string message;

  [[nodiscard]] explicit operator bool() const noexcept {
    return kind != Kind::kNone;
  }
  [[nodiscard]] const char* kind_name() const noexcept {
    switch (kind) {
      case Kind::kDeviceOutOfMemory: return "device_out_of_memory";
      case Kind::kFaultRetriesExhausted: return "fault_retries_exhausted";
      case Kind::kNoProgress: return "no_progress";
      case Kind::kNone: break;
    }
    return "none";
  }
};

// Maps the typed exceptions a run may surface onto a RunError.
[[nodiscard]] RunError run_error_from(const std::exception& e);

// Host-parallelism selection shared by sepo_cli and the bench binaries:
// strips a `--workers N` / `--workers=N` flag from argv (compacting argc like
// obs::OutputOptions::from_args) and returns its value; falls back to the
// SEPO_WORKERS environment variable, then to 0 (= hardware concurrency, the
// ThreadPool default). A count above gpusim::kMaxPoolWorkers is a usage
// error: it is reported and the process exits 1. Plumb the result into
// GpuConfig/CpuConfig .pool_workers to sweep host parallelism in perf runs.
[[nodiscard]] std::size_t pool_workers_from_args(int& argc, char** argv);

// One measured run of one implementation of one app.
struct RunResult {
  std::string impl;                 // engine name: "sepo-gpu", "cpu", ...
  gpusim::StatsSnapshot stats;
  gpusim::PcieSnapshot pcie;
  gpusim::SerializationInputs serial;
  std::uint32_t iterations = 0;     // SEPO iterations (1 when it fits)
  std::uint64_t table_bytes = 0;    // final hash-table footprint
  std::uint64_t heap_bytes = 0;     // device heap the table had to fit in
  std::uint64_t checksum = 0;       // order-independent result digest
  std::uint64_t keys = 0;           // distinct keys (entries) in the result
  // Modelled time. GPU paths: the discrete-event timeline's makespan plus
  // serialization_seconds; CPU paths: compute_time on kCpuDesc plus
  // serialization_seconds.
  double sim_seconds = 0;
  // The hot-lock serialization term inside sim_seconds (gpusim::
  // serialization_time): the part no parallelism can hide, which explains
  // Word Count's GPU result (paper §VI-B).
  double serialization_seconds = 0;
  // Host wall clock. Informational only: it depends on the simulation
  // host's hardware and load, unlike sim_seconds. Serialized and printed as
  // "wall_seconds_host" to keep that distinction visible.
  double wall_seconds = 0;
  gpusim::TimelineSummary timeline{};        // GPU paths only (scheduled)
  gpusim::FaultSummary faults{};             // per-engine fault/retry totals
  // Structural failure, if any. A set error means the numbers above cover
  // the run up to the failure point and the table results are not valid.
  RunError error;
  // Per-SEPO-iteration convergence profiles (SEPO paths; empty otherwise).
  core::IterationProfiles iteration_profiles;
  // Occupancy time-series, one sample per iteration boundary (SEPO paths;
  // empty otherwise). Serialized as the metrics schema v4 "timeseries".
  std::vector<gpusim::OccupancySample> timeseries;
  // Final-table bucket occupancy: [n] = buckets with n entries, last bin
  // aggregates longer chains (SEPO paths; empty otherwise).
  std::vector<std::uint64_t> bucket_histogram;
};

// Picks a BigKernel chunking for `idx` under `cfg`.
[[nodiscard]] bigkernel::PipelineConfig choose_chunking(
    const RecordIndex& idx, const GpuConfig& cfg);

// Lock-serialization inputs of a table: its per-bucket lock load, plus the
// serial atomics of tables that allocate from one shared offset.
template <typename Table>
[[nodiscard]] gpusim::SerializationInputs serial_inputs(const Table& t) {
  const gpusim::BucketLoad load = t.bucket_load();
  gpusim::SerializationInputs in{.total_lock_ops = load.total_accesses,
                                 .max_same_lock_ops = load.max_bucket_accesses};
  if constexpr (requires { t.serial_atomic_ops(); })
    in.serial_atomic_ops = t.serial_atomic_ops();
  return in;
}

// Calls `fn` when it leaves scope, also when a failure unwinds past it: the
// baselines read their table's lock load this way, so a failed run still
// reports the load it reached.
template <typename Fn>
class OnExit {
 public:
  explicit OnExit(Fn fn) : fn_(std::move(fn)) {}
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;
  ~OnExit() { fn_(); }

 private:
  Fn fn_;
};

// Order-independent digests used to cross-validate implementations.
[[nodiscard]] std::uint64_t checksum_kv(std::string_view key,
                                        std::uint64_t value) noexcept;
[[nodiscard]] std::uint64_t checksum_kv_bytes(
    std::string_view key, const std::byte* value,
    std::size_t value_len) noexcept;

// One entry's term of digest_kv.
[[nodiscard]] inline std::uint64_t kv_digest_term(
    std::string_view key, std::span<const std::byte> value) noexcept {
  return checksum_kv_bytes(key, value.data(), value.size());
}

// One key group's term of digest_groups; insensitive to value order.
[[nodiscard]] inline std::uint64_t group_digest_term(
    std::string_view key,
    const std::vector<std::span<const std::byte>>& vals) noexcept {
  std::uint64_t vsum = 0;
  for (const auto& v : vals)
    vsum += hash_bytes(reinterpret_cast<const char*>(v.data()), v.size());
  return hash_combine(hash_key(key), mix64(vsum));
}

// Order-independent digest of a finished KV table (anything exposing
// for_each(fn(key, value_bytes))): the wrapping sum of kv_digest_term.
template <typename Table>
[[nodiscard]] std::uint64_t digest_kv(const Table& t) {
  std::uint64_t sum = 0;
  t.for_each([&](std::string_view k, std::span<const std::byte> v) {
    sum += kv_digest_term(k, v);
  });
  return sum;
}

// Order-independent digest of a grouped table (anything exposing
// for_each_group(fn(key, values))): the wrapping sum of group_digest_term,
// so it is also insensitive to how duplicate key entries were merged.
template <typename Table>
[[nodiscard]] std::uint64_t digest_groups(const Table& t) {
  std::uint64_t sum = 0;
  t.for_each_group([&](std::string_view k,
                       const std::vector<std::span<const std::byte>>& vals) {
    sum += group_digest_term(k, vals);
  });
  return sum;
}

// The finalized SEPO table sums the same terms per bucket range on its
// pool; wrapping addition makes that the same number.
[[nodiscard]] inline std::uint64_t digest_kv(const core::HostTable& t) {
  return t.sum_entries(kv_digest_term);
}
[[nodiscard]] inline std::uint64_t digest_groups(const core::HostTable& t) {
  return t.sum_groups(group_digest_term);
}

// Fills a GPU RunResult's time fields from a finished ExecContext: the
// timeline summary and fault totals, serialization_seconds from r.serial,
// and sim_seconds = timeline makespan + serialization_seconds. Requires
// r.serial to be set already.
void fill_gpu_times(RunResult& r, const gpusim::ExecContext& ctx);

// Fills a CPU RunResult's time fields from r.stats and r.serial:
// sim_seconds = compute_time on kCpuDesc + serialization_seconds.
void fill_cpu_times(RunResult& r);

}  // namespace sepo::apps
