// All registered apps and engine rows, and run_engine, the one run function
// every row goes through (see engine.hpp for why this is one TU). It sees
// the app only through the AppInfo accessors, so it runs standalone and
// MapReduce apps alike, and it reads each row field in one place.
#include "apps/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "baselines/chained_host_table.hpp"
#include "baselines/paging_sim.hpp"
#include "baselines/stadium_hash_table.hpp"
#include "gpusim/device.hpp"
#include "gpusim/pcie.hpp"
#include "mapreduce/sepo_emitter.hpp"

namespace sepo::apps {

namespace {

using baselines::ChainedHostEmitter;
using baselines::ChainedHostTable;

// Bucket count of each per-thread container (Containers::kPerThread).
constexpr std::uint32_t kThreadTableBuckets = 1u << 12;

// The chained table of the app's organization and combiner.
baselines::ChainedHostTableConfig shape(const AppInfo& app,
                                        std::uint32_t num_buckets) {
  return {.org = app.organization(),
          .num_buckets = num_buckets,
          .combiner = app.combiner()};
}

// Order-independent digests of a finished table, summed per bucket range
// on the table's pool (HostTable) or on `pool` (ChainedHostTable). A
// multi-valued chained table of a combining app has been reduced
// (baselines::reduce_values): each key's newest value holds its result.
std::uint64_t digest(const core::HostTable& t) {
  return t.organization() == core::Organization::kMultiValued
             ? digest_groups(t)
             : digest_kv(t);
}
std::uint64_t digest(const ChainedHostTable& t, core::Organization app_org,
                     gpusim::ThreadPool& pool) {
  if (app_org == core::Organization::kMultiValued)
    return t.sum_groups(group_digest_term, pool);
  if (t.organization() == core::Organization::kMultiValued)
    return t.sum_groups(
        [](std::string_view k, const auto& vals) {
          return vals.empty() ? std::uint64_t{0} : kv_digest_term(k, vals[0]);
        },
        pool);
  return t.sum_entries(kv_digest_term, pool);
}

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

// ------------------------------------------------------ Placement::kHost

// No staging: the records split into cfg.num_threads contiguous parties on
// the pool. Each party maps into the shared table, or into its own
// container, which merge_tables then folds into it. Private containers take
// no shared lock while mapping, and the merge's tasks own disjoint buckets,
// so such a run has no serialization term.
RunResult run_on_host(const EngineRow& row, const AppInfo& app,
                      std::string_view input, const CpuConfig& cfg) {
  if (cfg.num_threads == 0)
    throw std::invalid_argument("num_threads must be positive");
  WallTimer timer;
  gpusim::ThreadPool pool(cfg.pool_workers);
  gpusim::RunStats stats;
  ChainedHostTable table(stats, shape(app, cfg.num_buckets));
  std::vector<std::unique_ptr<ChainedHostTable>> locals;
  if (row.containers == Containers::kPerThread)
    for (std::uint32_t t = 0; t < cfg.num_threads; ++t)
      locals.push_back(std::make_unique<ChainedHostTable>(
          stats, shape(app, kThreadTableBuckets)));

  const RecordIndex index = index_lines(input);
  const std::size_t n = index.size();
  pool.run_parties(cfg.num_threads, [&](std::size_t party) {
    const std::size_t lo = n * party / cfg.num_threads;
    const std::size_t hi = n * (party + 1) / cfg.num_threads;
    ChainedHostEmitter em(locals.empty() ? table : *locals[party],
                          static_cast<std::uint32_t>(party));
    for (std::size_t rec = lo; rec < hi; ++rec) {
      const std::string_view body = index.record(input.data(), rec);
      stats.add_work_units(body.size());
      app.map(body, em);
      stats.add_records_processed();
    }
  });
  merge_tables(locals, table, pool);

  RunResult r;
  r.stats = stats.snapshot();
  if (locals.empty()) r.serial = serial_inputs(table);
  r.iterations = 1;
  r.table_bytes = table.allocated_bytes();
  r.keys = table.entry_count();
  r.checksum = digest(table, app.organization(), pool);
  fill_cpu_times(r);
  r.wall_seconds = timer.seconds();
  return r;
}

// ------------------------------------------------ Placement::kHostIndexed

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
      r.checksum = digest(table, core::Organization::kBasic, pool);
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

// Stadium keeps its own path: its store holds every duplicate pair, its
// input copy never lands in device memory, and an index that outgrows the
// device throws, so the map loop runs on this thread (DESIGN.md §2).
void map_into_indexed_store(SimRun& sim, const AppInfo& app,
                            std::string_view input, const RecordIndex& idx,
                            std::uint32_t num_buckets, RunResult& r) {
  // The input crosses the bus as one bulk copy on the copy stream; the map
  // kernel reads it, so it starts once the copy is done.
  sim.dev.bus().h2d(input.size());
  const gpusim::Event staged = sim.ctx.copy_stream().h2d(input.size());
  baselines::StadiumHashTable table(
      sim.ctx, baselines::StadiumConfig{.num_buckets = num_buckets});
  const OnExit record_load([&] { r.serial = serial_inputs(table.table()); });
  StadiumEmitter em(table);
  // The map loop is one kernel on the timeline, and its remote writes one
  // remote batch after it. It runs on this thread, between the launch
  // brackets, because an insert that outgrows the device index throws; the
  // kernel is still scheduled then, so a failed run times the work it did
  // before the throw.
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
}

// ------------------------------------------------ Placement::kDemandPaged

RunResult replay_demand_paging(const AppInfo& app, std::string_view input,
                              const GpuConfig& cfg) {
  WallTimer timer;
  baselines::TracedCombiningTable traced(cfg.num_buckets);
  baselines::TraceEmitter em(traced);
  const RecordIndex idx = index_lines(input);
  for (std::size_t i = 0; i < idx.size(); ++i)
    app.map(idx.record(input.data(), i), em);

  const std::uint64_t mem_bytes =
      cfg.heap_bytes ? cfg.heap_bytes : cfg.device_bytes;
  const auto res =
      baselines::simulate_lru(traced.trace(), cfg.page_size, mem_bytes);
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

// ------------------------------------------------- the simulated device

// Every placement on the virtual GPU, inside SimRun's one guard. The staging
// ring comes first: it is a static device structure that the table's heap
// must leave room for. Rows without SEPO make one pass, so they report one
// iteration, also when they fail.
RunResult run_on_device(const EngineRow& row, const AppInfo& app,
                        std::string_view input, const GpuConfig& cfg) {
  SimRun sim(cfg);
  return sim.run([&](RunResult& r) {
    if (row.placement != Placement::kDeviceSepo) r.iterations = 1;
    const RecordIndex index = index_lines(input);
    std::optional<bigkernel::InputPipeline> ring;
    if (row.staging == Staging::kRing)
      ring.emplace(sim.ctx, choose_chunking(index, cfg));
    // A divergent parser's record bytes count toward the divergence term.
    const bool divergent = app.divergent_parse();
    const auto map = [&](std::string_view body, mapreduce::Emitter& em) {
      if (divergent) sim.stats.add_divergent_units(body.size());
      app.map(body, em);
    };

    if (row.placement == Placement::kDeviceSepo) {
      core::SepoHashTable ht(sim.ctx, {.org = app.organization(),
                                       .num_buckets = cfg.num_buckets,
                                       .buckets_per_group = cfg.buckets_per_group,
                                       .page_size = cfg.page_size,
                                       .combiner = app.combiner(),
                                       .heap_bytes = cfg.heap_bytes});
      r.heap_bytes = ht.page_pool().heap_bytes();
      const core::DriverResult dres = mapreduce::run_sepo_job(
          ht, *ring, input, index, map,
          {.basic_halt_frac = cfg.basic_halt_frac});
      fill_sepo_result(r, ht, dres, ht.finalize());
      return;
    }
    if (row.placement == Placement::kHostIndexed)
      return map_into_indexed_store(sim, app, input, index, cfg.num_buckets,
                                    r);

    // A chained table: in pinned CPU memory, or MapCG's in one device arena,
    // multi-valued so that every emission appends and a reduce pass folds
    // the values after the map.
    const bool arena = row.placement == Placement::kDeviceNoSepo;
    ChainedHostTable table(
        sim.ctx,
        arena ? baselines::ChainedHostTableConfig{
                    .org = core::Organization::kMultiValued,
                    .num_buckets = cfg.num_buckets}
              : shape(app, cfg.num_buckets),
        arena ? baselines::EntryMemory::kDevice
              : baselines::EntryMemory::kPinnedHost);
    const OnExit record_load([&] { r.serial = serial_inputs(table); });
    // One record on one virtual thread; kPostpone when the table refused an
    // emit, which only a full device arena does.
    const auto map_record = [&](std::string_view body) {
      ChainedHostEmitter em(table, /*tid=*/0);
      map(body, em);
      return em.failed() ? core::Status::kPostpone : core::Status::kSuccess;
    };
    if (ring) {
      ProgressTracker progress(index.size());
      (void)ring->run_pass(input, index, progress,
                           [&](std::size_t, std::string_view body) {
                             return map_record(body);
                           });
    } else {
      // One bulk copy: the whole input goes to device memory up front, where
      // input and table share what the device has, and the map kernel waits
      // for the copy (no pipelining). The first refused emit fails the run:
      // no record starts after it.
      if (input.size() + (64u << 10) > sim.dev.mem_free()) {
        r.error = {RunError::Kind::kDeviceOutOfMemory,
                   "MapCG: input does not fit in device memory"};
        return;
      }
      const gpusim::DevPtr dev_input = sim.dev.alloc_static(input.size(), 64);
      const gpusim::Event staged =
          sim.ctx.stage_h2d(dev_input, input.data(), input.size());
      if (arena) table.carve_device_heap();
      std::atomic<bool> full{false};
      sim.ctx.launch(
          index.size(),
          [&](std::size_t rec) {
            if (full.load(std::memory_order_relaxed)) return;
            const std::string_view body{
                reinterpret_cast<const char*>(
                    sim.dev.ptr(dev_input + index.offsets[rec])),
                index.lengths[rec]};
            sim.stats.add_work_units(body.size());
            if (map_record(body) == core::Status::kPostpone) {
              full.store(true, std::memory_order_relaxed);
              return;
            }
            sim.stats.add_records_processed();
          },
          {}, staged);
      if (full.load(std::memory_order_relaxed)) {
        r.error = {RunError::Kind::kDeviceOutOfMemory,
                   "MapCG: device hash table out of memory"};
        return;
      }
    }
    if (arena) {
      if (app.organization() == core::Organization::kCombining)
        reduce_values(sim.ctx, table, app.combiner());
      // The results return to the host in one bulk transfer.
      sim.dev.bus().d2h(table.allocated_bytes());
      sim.ctx.flush_d2h(table.allocated_bytes());
    }
    r.keys = table.entry_count();
    r.checksum = digest(table, app.organization(), sim.pool);
  });
}

}  // namespace

// --------------------------------------------------------- the run function

RunResult run_engine(const EngineRow& row, const AppInfo& app,
                     std::string_view input, const EngineConfig& cfg) {
  RunResult r = row.placement == Placement::kHost
                    ? run_on_host(row, app, input, cfg.cpu)
                : row.placement == Placement::kDemandPaged
                    ? replay_demand_paging(app, input, cfg.gpu)
                    : run_on_device(row, app, input, cfg.gpu);
  r.impl = row.key;
  return r;
}

bool EngineRow::supports(const AppInfo& app) const {
  if (!(app.is_mapreduce() ? mapreduce : standalone)) return false;
  return placement != Placement::kDemandPaged ||
         (app.organization() == core::Organization::kCombining &&
          app.combiner() == core::combine_sum_u64);
}

RunResult EngineRow::run(const AppInfo& app, std::string_view input,
                         const EngineConfig& cfg) const {
  return run_engine(*this, app, input, cfg);
}

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
  using enum Placement;
  using enum Staging;
  using enum Containers;
  static const EngineRow rows[] = {
      {"sepo-gpu",
       "SEPO hash table on the virtual GPU: BigKernel staging + SEPO "
       "iterations (the paper's system)",
       kDeviceSepo, kRing, kShared, true, true},
      {"sepo-mr", "SEPO-based MapReduce runtime on the virtual GPU (paper §V)",
       kDeviceSepo, kRing, kShared, false, true},
      {"cpu",
       "multi-threaded CPU baseline table (the Figure 6 reference for "
       "standalone apps, the Figure 7 reference for all)",
       kHost, kNone, kShared, true, true},
      {"phoenix",
       "Phoenix++-style CPU MapReduce runtime (the Figure 6 reference)",
       kHost, kNone, kPerThread, false, true},
      {"pinned", "heap pinned in CPU memory, chains walked over PCIe (§VI-D)",
       kHostOverPcie, kRing, kShared, true, true},
      {"mapcg",
       "MapCG-style GPU runtime, whole input + table in a device arena "
       "(the Table II comparator; fails structurally when it outgrows "
       "the device)",
       kDeviceNoSepo, kBulkCopy, kShared, false, true},
      {"stadium",
       "Stadium-hashing baseline (§VII): entries in pinned CPU memory "
       "behind a device-resident fingerprint index; duplicates stored "
       "as separate pairs, merged host-side only for the digest",
       kHostIndexed, kBulkCopy, kShared, true, false},
      {"paging-sim",
       "demand-paging lower bound (§VI-D): replays the table access "
       "trace through an LRU page cache; sim time is the bandwidth-only "
       "transfer bound (0 when the table fits in memory). "
       "Count-combining apps only (PVC)",
       kDemandPaged, kNone, kShared, true, false},
  };
  static const std::vector<const Engine*> list = [] {
    std::vector<const Engine*> v;
    for (const EngineRow& e : rows) v.push_back(&e);
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
