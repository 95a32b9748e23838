#include "apps/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/hashing.hpp"
#include "common/parse.hpp"
#include "gpusim/worker_id.hpp"

namespace sepo::apps {

namespace {

// Largest raw byte span of any `records_per_chunk`-record chunk.
std::size_t max_chunk_span(const RecordIndex& idx, std::size_t per_chunk) {
  std::size_t max_span = 1;
  for (std::size_t lo = 0; lo < idx.size(); lo += per_chunk) {
    const std::size_t hi = std::min(lo + per_chunk, idx.size());
    const std::size_t span =
        idx.offsets[hi - 1] + idx.lengths[hi - 1] - idx.offsets[lo];
    max_span = std::max(max_span, span);
  }
  return max_span;
}

}  // namespace

// Picks a records-per-chunk so chunks approach cfg.target_chunk_bytes (few
// bulky PCIe transactions, few kernel launches) while the staging ring stays
// ≤ 1/4 of device capacity.
bigkernel::PipelineConfig choose_chunking(const RecordIndex& idx,
                                          const GpuConfig& cfg) {
  bigkernel::PipelineConfig pcfg;
  pcfg.num_staging_buffers = cfg.num_staging_buffers;
  const std::size_t target = std::min(
      cfg.target_chunk_bytes, cfg.device_bytes / (4 * cfg.num_staging_buffers));
  std::size_t total_bytes = 1;
  if (!idx.offsets.empty())
    total_bytes = idx.offsets.back() + idx.lengths.back() - idx.offsets[0];
  const std::size_t avg_record =
      std::max<std::size_t>(1, total_bytes / std::max<std::size_t>(1, idx.size()));
  pcfg.records_per_chunk =
      std::max<std::size_t>(16, target / avg_record);
  while (true) {
    pcfg.max_chunk_bytes = max_chunk_span(idx, pcfg.records_per_chunk);
    if (pcfg.max_chunk_bytes * pcfg.num_staging_buffers <=
            cfg.device_bytes / 2 ||
        pcfg.records_per_chunk <= 16)
      return pcfg;
    pcfg.records_per_chunk /= 2;
  }
}

std::size_t pool_workers_from_args(int& argc, char** argv) {
  // A count that does not parse, or that exceeds the counter shards, is a
  // usage error: the run would not use the pool that was asked for.
  const auto checked = [](const char* source, const char* value) {
    const auto n = parse_number<std::size_t>(value ? value : "");
    if (!n) {
      std::fprintf(stderr, "%s requires a worker count, got '%s'\n", source,
                   value ? value : "");
      std::exit(1);
    }
    if (*n > gpusim::kMaxPoolWorkers) {
      std::fprintf(stderr, "--workers %zu exceeds the maximum of %zu\n", *n,
                   gpusim::kMaxPoolWorkers);
      std::exit(1);
    }
    return *n;
  };
  std::size_t workers = 0;
  if (const char* env = std::getenv("SEPO_WORKERS"))
    workers = checked("SEPO_WORKERS", env);

  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0)
      workers = checked("--workers", argv[i] + 10);
    else if (std::strcmp(argv[i], "--workers") == 0)
      workers = checked("--workers", i + 1 < argc ? argv[++i] : nullptr);
    else
      argv[w++] = argv[i];
  }
  argc = w;
  argv[argc] = nullptr;
  return workers;
}

std::uint64_t checksum_kv(std::string_view key, std::uint64_t value) noexcept {
  // Commutative over the record set: summed into the digest by callers.
  return hash_combine(hash_key(key), hash_u64(value));
}

std::uint64_t checksum_kv_bytes(std::string_view key, const std::byte* value,
                                std::size_t value_len) noexcept {
  return hash_combine(hash_key(key),
                      hash_bytes(reinterpret_cast<const char*>(value),
                                 value_len));
}

void fill_gpu_times(RunResult& r, const gpusim::ExecContext& ctx) {
  r.timeline = ctx.timeline().summary();
  r.faults = ctx.timeline().fault_summary();
  r.serialization_seconds =
      gpusim::serialization_time(ctx.timeline().machine(), r.serial);
  r.sim_seconds = r.timeline.total + r.serialization_seconds;
}

void fill_cpu_times(RunResult& r) {
  r.serialization_seconds =
      gpusim::serialization_time(gpusim::kCpuDesc, r.serial);
  r.sim_seconds = gpusim::compute_time(gpusim::kCpuDesc, r.stats) +
                  r.serialization_seconds;
}

RunResult SimRun::run(const std::function<void(RunResult&)>& body) {
  RunResult r;
  try {
    body(r);
  } catch (const std::runtime_error& e) {
    // FaultError (retries exhausted), driver stall.
    r.error = run_error_from(e);
  } catch (const std::bad_alloc& e) {
    // DeviceOutOfMemory: static structures or an arena outgrew the device.
    r.error = run_error_from(e);
  }
  r.stats = stats.snapshot();
  r.pcie = dev.bus().snapshot();
  fill_gpu_times(r, ctx);
  r.wall_seconds = timer.seconds();
  return r;
}

RunError run_error_from(const std::exception& e) {
  RunError err;
  // Order matters: FaultError derives from runtime_error, so it must be
  // tested before its base. A plain runtime_error is the driver's stall
  // report (iteration cap / zero progress).
  if (dynamic_cast<const gpusim::FaultError*>(&e) != nullptr)
    err.kind = RunError::Kind::kFaultRetriesExhausted;
  else if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr)
    err.kind = RunError::Kind::kDeviceOutOfMemory;
  else if (dynamic_cast<const std::runtime_error*>(&e) != nullptr)
    err.kind = RunError::Kind::kNoProgress;
  else
    err.kind = RunError::Kind::kDeviceOutOfMemory;
  err.message = e.what();
  return err;
}

}  // namespace sepo::apps
