// All registered apps and engines, and each engine's one run path (see
// engine.hpp for why this is one TU). A run path sees the app only through
// the AppInfo accessors, so it runs standalone and MapReduce apps alike.
#include "apps/engine.hpp"

#include <algorithm>
#include <exception>
#include <unordered_map>

#include "baselines/chained_host_table.hpp"
#include "baselines/mapcg.hpp"
#include "baselines/paging_sim.hpp"
#include "baselines/phoenix.hpp"
#include "baselines/stadium_hash_table.hpp"
#include "gpusim/device.hpp"
#include "gpusim/pcie.hpp"
#include "mapreduce/sepo_emitter.hpp"

namespace sepo::apps {

namespace {

// Order-independent digests of a finished table, summed per bucket range
// on the table's pool (HostTable) or on `pool` (ChainedHostTable).
std::uint64_t digest(const core::HostTable& t) {
  return t.organization() == core::Organization::kMultiValued
             ? digest_groups(t)
             : digest_kv(t);
}
std::uint64_t digest(const baselines::ChainedHostTable& t,
                     gpusim::ThreadPool& pool) {
  return t.organization() == core::Organization::kMultiValued
             ? t.sum_groups(group_digest_term, pool)
             : t.sum_entries(kv_digest_term, pool);
}

// ------------------------------------------------------------------ SEPO

// Fills a finished SEPO run's table fields: serial from `ht`'s lock load,
// iterations and profiles from `dres`, footprint from `ht`, and keys, digest
// and occupancy from the finalized `table`.
void fill_sepo_result(RunResult& r, const core::SepoHashTable& ht,
                      const core::DriverResult& dres,
                      const core::HostTable& table) {
  r.serial = serial_inputs(ht);
  r.iterations = dres.iterations;
  r.table_bytes = ht.table_stats().table_bytes;
  r.keys = table.entry_count();
  r.checksum = digest(table);
  r.iteration_profiles = dres.profiles;
  r.timeseries = dres.timeseries;
  r.bucket_histogram = table.occupancy_histogram();
}

// The one SEPO run, behind both sepo-gpu and sepo-mr: on a virtual device
// sized by cfg.gpu, allocates the BigKernel staging ring, then a SEPO table
// of the app's organization and combiner, runs the app's map over every
// record until all are done, and digests the finalized table. A divergent
// parser's record bytes count toward the divergence term.
RunResult run_sepo(const AppInfo& app, std::string_view input,
                   const EngineConfig& ecfg) {
  const GpuConfig& cfg = ecfg.gpu;
  SimRun sim(cfg);
  return sim.run([&](RunResult& r) {
    const RecordIndex index = index_lines(input);
    bigkernel::InputPipeline pipe(sim.ctx, choose_chunking(index, cfg));
    core::SepoHashTable ht(sim.ctx, {.org = app.organization(),
                                     .num_buckets = cfg.num_buckets,
                                     .buckets_per_group = cfg.buckets_per_group,
                                     .page_size = cfg.page_size,
                                     .combiner = app.combiner(),
                                     .heap_bytes = cfg.heap_bytes});
    r.heap_bytes = ht.page_pool().heap_bytes();
    const bool divergent = app.divergent_parse();
    const core::DriverResult dres = mapreduce::run_sepo_job(
        ht, pipe, input, index,
        [&](std::string_view body, mapreduce::Emitter& em) {
          if (divergent) sim.stats.add_divergent_units(body.size());
          app.map(body, em);
        },
        {.basic_halt_frac = cfg.basic_halt_frac});
    fill_sepo_result(r, ht, dres, ht.finalize());
  });
}

// ---------------------------------------------------------- CPU baselines

// The multi-threaded CPU baseline: one ChainedHostTable in CPU placement,
// the records split into cfg.cpu.num_threads contiguous ranges.
RunResult run_cpu(const AppInfo& app, std::string_view input,
                  const EngineConfig& ecfg) {
  const CpuConfig& cfg = ecfg.cpu;
  WallTimer timer;
  gpusim::ThreadPool pool(cfg.pool_workers);
  gpusim::RunStats stats;

  const core::Organization org = app.organization();
  baselines::ChainedHostTable table(
      stats,
      {.org = org, .num_buckets = cfg.num_buckets, .combiner = app.combiner()});

  const RecordIndex index = index_lines(input);
  const std::size_t n = index.size();
  pool.run_parties(cfg.num_threads, [&](std::size_t party) {
    const std::size_t lo = n * party / cfg.num_threads;
    const std::size_t hi = n * (party + 1) / cfg.num_threads;
    baselines::ChainedHostEmitter em(table, static_cast<std::uint32_t>(party));
    for (std::size_t rec = lo; rec < hi; ++rec) {
      const std::string_view body = index.record(input.data(), rec);
      stats.add_work_units(body.size());
      app.map(body, em);
      stats.add_records_processed();
    }
  });

  RunResult r;
  r.stats = stats.snapshot();
  r.serial = serial_inputs(table);
  r.iterations = 1;
  r.table_bytes = table.allocated_bytes();
  r.keys = table.entry_count();
  r.checksum = digest(table, pool);
  fill_cpu_times(r);
  r.wall_seconds = timer.seconds();
  return r;
}

// The Phoenix++-style CPU MapReduce runtime: private per-thread containers
// merged at the end, so it takes no shared locks.
RunResult run_phoenix(const AppInfo& app, std::string_view input,
                      const EngineConfig& ecfg) {
  WallTimer timer;
  gpusim::ThreadPool pool(ecfg.cpu.pool_workers);
  gpusim::RunStats stats;

  baselines::PhoenixConfig pcfg;
  pcfg.num_threads = ecfg.cpu.num_threads;
  pcfg.merged_table_buckets = ecfg.cpu.num_buckets;
  baselines::PhoenixRuntime phoenix(pool, stats, pcfg);
  const auto table = phoenix.run(input, app.mr->spec());

  RunResult r;
  r.stats = stats.snapshot();
  r.serial = {.total_lock_ops = 0,  // private containers: no shared locks
              .max_same_lock_ops = 0,
              .serial_atomic_ops = 0};
  r.iterations = 1;
  r.table_bytes = table->allocated_bytes();
  r.keys = table->entry_count();
  r.checksum = digest(*table, pool);
  fill_cpu_times(r);
  r.wall_seconds = timer.seconds();
  return r;
}

// ------------------------------------------------- device-side baselines

// The §VI-D heap-pinned-in-CPU-memory variant: the CPU baseline's table in
// pinned placement, fed by the same BigKernel staging as SEPO. It has no
// postponement story: a faulted transfer that exhausts its retries fails
// the whole run.
RunResult run_pinned(const AppInfo& app, std::string_view input,
                     const EngineConfig& ecfg) {
  const GpuConfig& cfg = ecfg.gpu;
  SimRun sim(cfg);
  return sim.run([&](RunResult& r) {
    r.iterations = 1;
    const RecordIndex index = index_lines(input);
    bigkernel::InputPipeline pipe(sim.ctx, choose_chunking(index, cfg));
    const core::Organization org = app.organization();
    baselines::ChainedHostTable table(sim.ctx, {.org = org,
                                                .num_buckets = cfg.num_buckets,
                                                .combiner = app.combiner()});
    const OnExit record_load([&] { r.serial = serial_inputs(table); });

    ProgressTracker progress(index.size());
    const bool divergent = app.divergent_parse();
    (void)pipe.run_pass(
        input, index, progress, [&](std::size_t, std::string_view body) {
          if (divergent) sim.stats.add_divergent_units(body.size());
          baselines::ChainedHostEmitter em(table, /*tid=*/0);
          app.map(body, em);
          return core::Status::kSuccess;
        });
    r.keys = table.entry_count();
    r.checksum = digest(table, sim.pool);
  });
}

// The MapCG-style GPU runtime. It has no SEPO: an input or table that
// outgrows the device is a structural failure of the whole run (paper §II).
RunResult run_mapcg(const AppInfo& app, std::string_view input,
                    const EngineConfig& ecfg) {
  SimRun sim(ecfg.gpu);
  return sim.run([&](RunResult& r) {
    r.iterations = 1;
    baselines::MapCgRuntime mapcg(sim.ctx,
                                  {.num_buckets = ecfg.gpu.num_buckets});
    const baselines::ChainedHostTable& table = mapcg.table();
    const OnExit record_load([&] { r.serial = serial_inputs(table); });
    mapcg.run(input, app.mr->spec());
    r.keys = table.entry_count();
    r.checksum = app.organization() == core::Organization::kMultiValued
                     ? digest(table, sim.pool)
                     : mapcg.sum_reduced(kv_digest_term, sim.pool);
  });
}

// ------------------------------------------------------- stadium baseline

class StadiumEmitter final : public mapreduce::Emitter {
 public:
  explicit StadiumEmitter(baselines::StadiumHashTable& t) noexcept : t_(t) {}
  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    t_.insert(key, value);
    return core::Status::kSuccess;
  }

 private:
  baselines::StadiumHashTable& t_;
};

// Stadium stores every duplicate pair (the paper's §VII critique), so its
// digest needs the host-side post-pass the design itself lacks: merge the
// raw pairs under the app's organization semantics, then digest exactly
// like digest_kv / digest_groups. keys = distinct keys after the merge;
// stats.inserts_new keeps the raw stored-pair count.
void digest_stadium(const AppInfo& app,
                    const baselines::ChainedHostTable& table,
                    gpusim::ThreadPool& pool, RunResult& r) {
  switch (app.organization()) {
    case core::Organization::kBasic:
      // The store is a basic table itself: no merge.
      r.checksum = digest(table, pool);
      r.keys = table.entry_count();  // basic keeps duplicates everywhere
      return;
    case core::Organization::kCombining: {
      const core::CombineFn combine = app.combiner();
      std::unordered_map<std::string, std::vector<std::byte>> merged;
      table.for_each([&](std::string_view k, std::span<const std::byte> v) {
        auto [it, fresh] = merged.try_emplace(std::string(k), v.begin(),
                                              v.end());
        if (!fresh)
          combine(it->second.data(), v.data(),
                  static_cast<std::uint32_t>(
                      std::min(it->second.size(), v.size())));
      });
      std::uint64_t sum = 0;
      for (const auto& [k, v] : merged) sum += kv_digest_term(k, v);
      r.checksum = sum;
      r.keys = merged.size();
      return;
    }
    case core::Organization::kMultiValued: {
      std::unordered_map<std::string_view,
                         std::vector<std::span<const std::byte>>>
          groups;
      table.for_each([&](std::string_view k, std::span<const std::byte> v) {
        groups[k].push_back(v);
      });
      std::uint64_t sum = 0;
      for (const auto& [k, vals] : groups) sum += group_digest_term(k, vals);
      r.checksum = sum;
      r.keys = groups.size();
      return;
    }
  }
}

RunResult run_stadium(const AppInfo& app, std::string_view input,
                      const EngineConfig& cfg) {
  SimRun sim(cfg.gpu);
  return sim.run([&](RunResult& r) {
    // Stadium has no SEPO: a fingerprint index (or bucket array) that
    // outgrows the device fails the run rather than returning a partial
    // table.
    r.iterations = 1;
    const RecordIndex idx = index_lines(input);
    // The input crosses the bus as one bulk copy on the copy stream; the
    // map kernel reads it, so it starts once the copy is done.
    sim.dev.bus().h2d(input.size());
    const gpusim::Event staged = sim.ctx.copy_stream().h2d(input.size());
    baselines::StadiumHashTable table(
        sim.ctx, baselines::StadiumConfig{.num_buckets = cfg.gpu.num_buckets});
    const OnExit record_load([&] { r.serial = serial_inputs(table.table()); });
    StadiumEmitter em(table);
    // The map loop is one kernel on the timeline, and its remote writes one
    // remote batch after it. It runs on this thread, between the launch
    // brackets, because an insert that outgrows the device index throws;
    // the kernel is still scheduled then, so a failed run times the work
    // it did before the throw.
    const auto launch = sim.ctx.begin_launch(staged, idx.size());
    sim.stats.add_kernel_launches();
    std::exception_ptr failure;
    try {
      for (std::size_t i = 0; i < idx.size(); ++i) {
        const std::string_view body = idx.record(input.data(), i);
        sim.stats.add_work_units(body.size());
        app.map(body, em);
        sim.stats.add_records_processed();
      }
    } catch (...) {
      failure = std::current_exception();
    }
    (void)sim.ctx.finish_launch(launch, idx.size());
    if (failure) std::rethrow_exception(failure);
    digest_stadium(app, table.table(), sim.pool, r);
  });
}

// ------------------------------------------------ demand-paging lower bound

// The traced table models <key, +1> combining inserts, so only apps with
// exactly that shape replay faithfully. The row's kind flags narrow it
// further to the standalone apps (Table III's PVC).
bool paging_sim_supports(const AppInfo& app) {
  return app.organization() == core::Organization::kCombining &&
         app.combiner() == core::combine_sum_u64;
}

RunResult run_paging_sim(const AppInfo& app, std::string_view input,
                         const EngineConfig& cfg) {
  WallTimer timer;
  baselines::TracedCombiningTable traced(cfg.gpu.num_buckets);
  baselines::TraceEmitter em(traced);
  const RecordIndex idx = index_lines(input);
  for (std::size_t i = 0; i < idx.size(); ++i)
    app.map(idx.record(input.data(), i), em);

  const std::uint64_t mem_bytes =
      cfg.gpu.heap_bytes ? cfg.gpu.heap_bytes : cfg.gpu.device_bytes;
  const auto res =
      baselines::simulate_lru(traced.trace(), cfg.gpu.page_size, mem_bytes);
  const gpusim::PcieBus bus;  // same PCIe model used everywhere

  RunResult r;
  r.iterations = 1;
  r.table_bytes = traced.table_bytes();
  r.heap_bytes = mem_bytes;
  r.keys = traced.entry_count();
  std::uint64_t sum = 0;
  traced.for_each_count([&](std::string_view k, std::uint64_t count) {
    sum += checksum_kv_bytes(
        k, reinterpret_cast<const std::byte*>(&count), sizeof(count));
  });
  r.checksum = sum;
  r.pcie.d2h_bytes = res.bytes_transferred;  // replacement traffic
  r.sim_seconds = static_cast<double>(res.bytes_transferred) /
                  bus.params().bandwidth_bytes_per_s;
  r.wall_seconds = timer.seconds();
  return r;
}

}  // namespace

// ---------------------------------------------------------------- registry

const std::vector<const AppInfo*>& all_apps() {
  static const PageViewCountApp pvc;
  static const InvertedIndexApp ii;
  static const DnaAssemblyApp dna;
  static const NetflixApp netflix;
  static const AppInfo infos[] = {
      {.key = "pvc", .title = pvc.name(), .standalone = &pvc},
      {.key = "ii", .title = ii.name(), .standalone = &ii},
      {.key = "dna", .title = dna.name(), .standalone = &dna},
      {.key = "netflix", .title = netflix.name(), .standalone = &netflix},
      {.key = "wc", .title = word_count_app().name, .mr = &word_count_app()},
      {.key = "pc",
       .title = patent_citation_app().name,
       .mr = &patent_citation_app()},
      {.key = "geo",
       .title = geo_location_app().name,
       .mr = &geo_location_app()},
  };
  static const std::vector<const AppInfo*> list = [] {
    std::vector<const AppInfo*> v;
    for (const AppInfo& i : infos) v.push_back(&i);
    return v;
  }();
  return list;
}

const AppInfo* find_app(std::string_view key) {
  for (const AppInfo* a : all_apps())
    if (key == a->key) return a;
  return nullptr;
}

const std::vector<const Engine*>& all_engines() {
  static const Engine engines[] = {
      {"sepo-gpu",
       "SEPO hash table on the virtual GPU: BigKernel staging + SEPO "
       "iterations (the paper's system)",
       {.standalone = true,
        .mapreduce = true,
        .simulated_device = true,
        .trace = true,
        .journal = true,
        .faults = true},
       run_sepo},
      {"sepo-mr", "SEPO-based MapReduce runtime on the virtual GPU (paper §V)",
       {.mapreduce = true,
        .simulated_device = true,
        .trace = true,
        .journal = true,
        .faults = true},
       run_sepo},
      {"cpu",
       "multi-threaded CPU baseline table (the Figure 6 reference for "
       "standalone apps, the Figure 7 reference for all)",
       {.standalone = true, .mapreduce = true}, run_cpu},
      {"phoenix",
       "Phoenix++-style CPU MapReduce runtime (the Figure 6 reference)",
       {.mapreduce = true}, run_phoenix},
      {"pinned", "heap pinned in CPU memory, chains walked over PCIe (§VI-D)",
       {.standalone = true,
        .mapreduce = true,
        .simulated_device = true,
        .trace = true,
        .journal = true,
        .faults = true},
       run_pinned},
      {"mapcg",
       "MapCG-style GPU runtime, whole input + table in a device arena "
       "(the Table II comparator; fails structurally when it outgrows "
       "the device)",
       {.mapreduce = true,
        .simulated_device = true,
        .trace = true,
        .journal = true,
        .faults = true},
       run_mapcg},
      {"stadium",
       "Stadium-hashing baseline (§VII): entries in pinned CPU memory "
       "behind a device-resident fingerprint index; duplicates stored "
       "as separate pairs, merged host-side only for the digest",
       // Its input copy and map kernel are timeline commands, but the copy
       // bypasses ExecContext::stage_h2d (the input never lands in device
       // memory), so transfer faults and the telemetry hooks don't apply.
       {.standalone = true, .simulated_device = true}, run_stadium},
      {"paging-sim",
       "demand-paging lower bound (§VI-D): replays the table access "
       "trace through an LRU page cache; sim time is the bandwidth-only "
       "transfer bound (0 when the table fits in memory). "
       "Count-combining apps only (PVC)",
       {.standalone = true}, run_paging_sim, paging_sim_supports},
  };
  static const std::vector<const Engine*> list = [] {
    std::vector<const Engine*> v;
    for (const Engine& e : engines) v.push_back(&e);
    return v;
  }();
  return list;
}

const Engine* find_engine(std::string_view name) {
  for (const Engine* e : all_engines())
    if (name == e->name()) return e;
  return nullptr;
}

const Engine* resolve_engine(std::string_view name, const AppInfo& app) {
  // Historical aliases: "gpu" has always meant "the SEPO engine for this
  // app's kind", "mr" the MapReduce one.
  if (name == "gpu")
    return find_engine(app.is_mapreduce() ? "sepo-mr" : "sepo-gpu");
  if (name == "mr") return find_engine("sepo-mr");
  return find_engine(name);
}

const Engine* baseline_engine(const AppInfo& app) {
  return find_engine(app.is_mapreduce() ? "phoenix" : "cpu");
}

}  // namespace sepo::apps
