// Framework execution paths shared by the standalone apps.
#include "apps/standalone_app.hpp"

#include <algorithm>

#include "baselines/chained_host_table.hpp"
#include "bigkernel/pipeline.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "gpusim/device.hpp"

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

void fill_sepo_result(RunResult& r, const core::SepoHashTable& ht,
                      const core::DriverResult& dres,
                      const core::HostTable& table) {
  r.serial = serial_inputs(ht);
  r.iterations = dres.iterations;
  r.table_bytes = ht.table_stats().table_bytes;
  r.keys = table.entry_count();
  r.checksum = table.organization() == core::Organization::kMultiValued
                   ? digest_groups(table)
                   : digest_kv(table);
  r.iteration_profiles = dres.profiles;
  r.timeseries = dres.timeseries;
  r.bucket_histogram = table.occupancy_histogram();
}

RunResult StandaloneApp::run_gpu(std::string_view input,
                                 const GpuConfig& cfg) const {
  return run_sepo("sepo-gpu", organization(), combiner(), divergent_parse(),
                  input, cfg, [this](std::string_view body,
                                     mapreduce::Emitter& em) {
                    map_record(body, em);
                  });
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

  RunResult r;
  r.impl = "cpu";
  r.stats = stats.snapshot();
  r.serial = serial_inputs(table);
  r.iterations = 1;
  r.table_bytes = table.allocated_bytes();
  r.keys = table.entry_count();
  r.checksum = organization() == core::Organization::kMultiValued
                   ? digest_groups(table)
                   : digest_kv(table);
  fill_cpu_times(r);
  r.wall_seconds = timer.seconds();
  return r;
}

RunResult StandaloneApp::run_pinned(std::string_view input,
                                    const GpuConfig& cfg) const {
  SimRun sim(cfg);
  return sim.run("pinned", [&](RunResult& r) {
    r.iterations = 1;
    const RecordIndex index = index_lines(input);
    bigkernel::InputPipeline pipe(sim.ctx, choose_chunking(index, cfg));
    baselines::ChainedHostTable table(
        sim.ctx, {.org = organization(),
                  .num_buckets = cfg.num_buckets,
                  .combiner = combiner()});
    const OnExit record_load([&] { r.serial = serial_inputs(table); });

    // No postponement story: a faulted transfer that exhausts its retries
    // fails the whole run.
    ProgressTracker progress(index.size());
    const bool divergent = divergent_parse();
    (void)pipe.run_pass(
        input, index, progress, [&](std::size_t, std::string_view body) {
          if (divergent) sim.stats.add_divergent_units(body.size());
          baselines::ChainedHostEmitter em(table, /*tid=*/0);
          map_record(body, em);
          return core::Status::kSuccess;
        });
    r.keys = table.entry_count();
    r.checksum = organization() == core::Organization::kMultiValued
                     ? digest_groups(table)
                     : digest_kv(table);
  });
}

}  // namespace sepo::apps
