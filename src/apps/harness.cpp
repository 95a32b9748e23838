#include "apps/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "baselines/mapcg.hpp"
#include "common/hashing.hpp"
#include "gpusim/worker_id.hpp"

namespace sepo::apps {

std::size_t pool_workers_from_args(int& argc, char** argv) {
  std::size_t workers = 0;
  if (const char* env = std::getenv("SEPO_WORKERS"))
    workers = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));

  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      value = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "--workers requires a count argument\n");
        continue;
      }
    } else {
      argv[w++] = argv[i];
      continue;
    }
    workers = static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
  }
  argc = w;
  argv[argc] = nullptr;
  if (workers > gpusim::kMaxPoolWorkers) {
    std::fprintf(stderr, "--workers %zu exceeds the maximum of %zu\n", workers,
                 gpusim::kMaxPoolWorkers);
    std::exit(1);
  }
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

RunResult SimRun::run(const char* impl,
                      const std::function<void(RunResult&)>& body) {
  RunResult r;
  r.impl = impl;
  try {
    body(r);
  } catch (const std::runtime_error& e) {
    // FaultError (retries exhausted), MapCgOutOfMemory, driver stall.
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
  // Order matters: FaultError and the MapCG OOM both derive from
  // runtime_error, and DeviceOutOfMemory derives from bad_alloc, so the
  // specific types must be tested before their bases. A plain runtime_error
  // is the driver's stall report (iteration cap / zero progress).
  if (dynamic_cast<const gpusim::FaultError*>(&e) != nullptr)
    err.kind = RunError::Kind::kFaultRetriesExhausted;
  else if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr ||
           dynamic_cast<const baselines::MapCgOutOfMemory*>(&e) != nullptr)
    err.kind = RunError::Kind::kDeviceOutOfMemory;
  else if (dynamic_cast<const std::runtime_error*>(&e) != nullptr)
    err.kind = RunError::Kind::kNoProgress;
  else
    err.kind = RunError::Kind::kDeviceOutOfMemory;
  err.message = e.what();
  return err;
}

}  // namespace sepo::apps
