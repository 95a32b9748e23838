// Framework execution paths shared by the standalone apps.
#include "apps/standalone_app.hpp"

#include <algorithm>
#include <new>
#include <optional>
#include <stdexcept>

#include "baselines/chained_host_table.hpp"
#include "bigkernel/pipeline.hpp"
#include "common/hashing.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "core/sepo_driver.hpp"
#include "gpusim/device.hpp"
#include "mapreduce/sepo_emitter.hpp"

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
void choose_chunking(const RecordIndex& idx, const GpuConfig& cfg,
                     bigkernel::PipelineConfig& pcfg) {
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
      return;
    pcfg.records_per_chunk /= 2;
  }
}

RunResult sepo_run_result(const char* impl, const SimRun& sim,
                          const core::SepoHashTable& ht,
                          const core::DriverResult& dres,
                          const core::HostTable& table) {
  const auto load = ht.bucket_load();
  RunResult r;
  r.impl = impl;
  r.stats = sim.stats.snapshot();
  r.pcie = sim.dev.bus().snapshot();
  r.serial = {.total_lock_ops = load.total_accesses,
              .max_same_lock_ops = load.max_bucket_accesses,
              .serial_atomic_ops = 0};
  r.iterations = dres.iterations;
  r.table_bytes = ht.table_stats().table_bytes;
  r.heap_bytes = ht.page_pool().heap_bytes();
  r.keys = table.entry_count();
  r.checksum = table.organization() == core::Organization::kMultiValued
                   ? digest_groups(table)
                   : digest_kv(table);
  r.iteration_profiles = dres.profiles;
  r.timeseries = dres.timeseries;
  r.bucket_histogram = table.occupancy_histogram();
  fill_gpu_times(r, sim.ctx, sim.dev.bus());
  r.wall_seconds = sim.timer.seconds();
  return r;
}

RunResult StandaloneApp::run_gpu(std::string_view input,
                                 const GpuConfig& cfg) const {
  SimRun sim(cfg);
  gpusim::Device& dev = sim.dev;
  gpusim::RunStats& stats = sim.stats;
  gpusim::ExecContext& ctx = sim.ctx;

  const RecordIndex index = index_lines(input);
  bigkernel::PipelineConfig pcfg;
  choose_chunking(index, cfg, pcfg);
  bigkernel::InputPipeline pipe(ctx, pcfg);

  core::HashTableConfig tcfg;
  tcfg.org = organization();
  tcfg.num_buckets = cfg.num_buckets;
  tcfg.buckets_per_group = cfg.buckets_per_group;
  tcfg.page_size = cfg.page_size;
  tcfg.combiner = combiner();
  tcfg.heap_bytes = cfg.heap_bytes;

  // The table is constructed inside the try: its static structures can
  // already exceed the device (typed DeviceOutOfMemory), so construction
  // failures must surface as a RunError like any other structural failure —
  // not escape as a raw exception.
  std::optional<core::SepoHashTable> ht;
  const auto fail = [&](const std::exception& e) {
    RunResult r;
    r.impl = "sepo-gpu";
    r.stats = stats.snapshot();
    r.pcie = dev.bus().snapshot();
    r.heap_bytes = ht ? ht->page_pool().heap_bytes() : 0;
    r.error = run_error_from(e);
    fill_gpu_times(r, ctx, dev.bus());
    r.wall_seconds = sim.timer.seconds();
    return r;
  };

  ProgressTracker progress(index.size(), /*multi_emit=*/true);
  core::SepoDriver driver({.basic_halt_frac = cfg.basic_halt_frac});
  const bool divergent = divergent_parse();
  core::DriverResult dres;
  try {
    ht.emplace(ctx, tcfg);
    dres = driver.run(
        *ht, pipe, input, index, progress,
        [&](std::size_t rec, std::string_view body) {
          if (divergent) stats.add_divergent_units(body.size());
          mapreduce::SepoEmitter em(*ht, progress, rec);
          map_record(body, em);
          return em.failed() ? core::Status::kPostpone : core::Status::kSuccess;
        });
  } catch (const gpusim::FaultError& e) {
    // Transient-fault retry exhaustion is the one adversity SEPO cannot
    // absorb by postponing; surface it structurally.
    return fail(e);
  } catch (const std::bad_alloc& e) {
    return fail(e);
  } catch (const std::runtime_error& e) {
    // Driver stall (iteration cap / zero progress) — typed kNoProgress.
    return fail(e);
  }

  return sepo_run_result("sepo-gpu", sim, *ht, dres, ht->finalize());
}

RunResult StandaloneApp::run_cpu(std::string_view input,
                                 const CpuConfig& cfg) const {
  WallTimer timer;
  gpusim::ThreadPool pool(cfg.pool_workers);
  gpusim::RunStats stats;

  baselines::ChainedHostTable table(
      stats, {.org = organization(),
              .num_buckets = cfg.num_buckets,
              .combiner = combiner()});

  const RecordIndex index = index_lines(input);
  const std::size_t n = index.size();
  pool.run_parties(cfg.num_threads, [&](std::size_t party) {
    const std::size_t lo = n * party / cfg.num_threads;
    const std::size_t hi = n * (party + 1) / cfg.num_threads;
    baselines::ChainedHostEmitter em(table, static_cast<std::uint32_t>(party));
    for (std::size_t rec = lo; rec < hi; ++rec) {
      const std::string_view body = index.record(input.data(), rec);
      stats.add_work_units(body.size());
      map_record(body, em);
      stats.add_records_processed();
    }
  });

  const auto load = table.bucket_load();
  RunResult r;
  r.impl = "cpu";
  r.stats = stats.snapshot();
  r.serial = {.total_lock_ops = load.total_accesses,
              .max_same_lock_ops = load.max_bucket_accesses,
              .serial_atomic_ops = 0};
  r.iterations = 1;
  r.table_bytes = table.allocated_bytes();
  r.keys = table.entry_count();
  r.checksum = organization() == core::Organization::kMultiValued
                   ? digest_groups(table)
                   : digest_kv(table);
  r.sim_seconds = cpu_sim_seconds(r.stats, r.serial);
  r.sim_seconds_analytic = r.sim_seconds;
  r.wall_seconds = timer.seconds();
  return r;
}

RunResult StandaloneApp::run_pinned(std::string_view input,
                                    const GpuConfig& cfg) const {
  SimRun sim(cfg);
  gpusim::Device& dev = sim.dev;
  gpusim::RunStats& stats = sim.stats;
  gpusim::ExecContext& ctx = sim.ctx;

  const RecordIndex index = index_lines(input);
  bigkernel::PipelineConfig pcfg;
  choose_chunking(index, cfg, pcfg);
  bigkernel::InputPipeline pipe(ctx, pcfg);

  baselines::ChainedHostTable table(
      ctx, {.org = organization(),
            .num_buckets = cfg.num_buckets,
            .combiner = combiner()});

  ProgressTracker progress(index.size());
  const bool divergent = divergent_parse();
  RunResult r;
  r.impl = "pinned";
  try {
    const bigkernel::PassResult pass = pipe.run_pass(
        input, index, progress, [&](std::size_t, std::string_view body) {
          if (divergent) stats.add_divergent_units(body.size());
          baselines::ChainedHostEmitter em(table, /*tid=*/0);
          map_record(body, em);
          return core::Status::kSuccess;
        });
    (void)pass;
  } catch (const gpusim::FaultError& e) {
    // No postponement story: a faulted transfer that exhausts its retries
    // fails the whole run, structurally.
    r.error = run_error_from(e);
  } catch (const std::bad_alloc& e) {
    r.error = run_error_from(e);
  }

  const auto load = table.bucket_load();
  r.stats = stats.snapshot();
  r.pcie = dev.bus().snapshot();
  r.serial = {.total_lock_ops = load.total_accesses,
              .max_same_lock_ops = load.max_bucket_accesses,
              .serial_atomic_ops = 0};
  r.iterations = 1;
  if (!r.error) {
    r.keys = table.entry_count();
    r.checksum = organization() == core::Organization::kMultiValued
                     ? digest_groups(table)
                     : digest_kv(table);
  }
  fill_gpu_times(r, ctx, dev.bus());
  r.wall_seconds = sim.timer.seconds();
  return r;
}

}  // namespace sepo::apps
