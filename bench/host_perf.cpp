// host_perf — wall-clock benchmarks of the simulator's own execution hot
// path (EXPERIMENTS.md "Wall-clock benchmarking").
//
// Everything else in bench/ reports *simulated* seconds, which are derived
// from event counts and therefore host-independent. This binary is the one
// place that times the host for its own sake: how fast the virtual GPU
// executes, which is what bounds every bench/ctest run. It times
//
//   counter_bump_atomic    the original hot-path shape: per-item
//                          std::function dispatch, every virtual thread
//                          bumping one shared set of atomics (a bench-local
//                          copy of the old RunStats, SharedAtomicStats)
//   counter_bump_sharded   the same counter workload through gpusim::launch:
//                          devirtualized dispatch + RunStats' per-worker
//                          counter shards (the contention-free path)
//   counter_bump_parties   the same workload through ThreadPool::run_parties
//                          with no launch: the CPU-baseline shape
//   journal_disabled       sharded counter workload with a nullable
//                          EventJournal* left null (the branch every journal
//                          hook costs when no journal is installed)
//   journal_event_sharded  identical code shape with the journal installed:
//                          ~1/11 items record a flight-recorder event into
//                          the worker's ring shard
//   journal_*_1w           the same pair on a 1-worker pool (the gated one)
//   empty_dispatch         per-item scheduling overhead alone (devirtualized
//                          launch of a no-op kernel)
//   insert_scalar_zipf     SEPO table inserts, Word-Count-shaped Zipf(1.05)
//                          keys (hot keys hammer few bucket locks)
//   insert_scalar_uniform  the same inserts under uniform keys
//   fig6_pvc_gpu           an end-to-end Page View Count SEPO-GPU run
//   pc_sepo_mr_d4          an end-to-end Patent Citation sepo-mr run at
//                          dataset #4 (8 SEPO iterations, multi-valued)
//   dna_sepo_gpu_d4        an end-to-end DNA Assembly sepo-gpu run at
//                          dataset #4 (table ~4.5x the device heap)
//   pc_phoenix_d4          end-to-end Phoenix++-style CPU runs at dataset #4
//   wc_phoenix_d4          (the pc-group and wc-resident reference jobs):
//                          per-thread map, partitioned merge, digest
//   dna_cpu_d4             end-to-end DNA Assembly runs at dataset #4 on the
//   dna_pinned_d4          CPU and pinned baselines (the dna-spill reference
//                          and pinned jobs): chained-table inserts probing
//                          their bucket's probe line
//
// and writes BENCH_host.json (obs::kBenchSchemaVersion), with the command
// line that produced it and the host fingerprint (hardware threads, workers,
// build type, compiler, commit), when --metrics-out is given; `sepo_cli
// bench-check` validates it, `sepo_cli bench-diff` compares two of them from
// one host. Each bench takes the best of --reps runs to damp
// scheduler noise. The three counter rows double-check bit-identity: their
// counter totals must match exactly or the binary exits 1, and the
// journal pair repeats the same check (recording events must not perturb the
// metered counters). The 1-worker journal pair's relative cost (the median
// of its per-rep paired ratios) is written as journal_overhead_pct;
// `sepo_cli bench-check` fails the file when it exceeds 10%.
//
//   host_perf [--tiny] [--workers N] [--reps N] [--metrics-out=FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <cmath>
#include <span>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "common/table_printer.hpp"
#include "core/hash_table.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/journal.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

using namespace sepo;
using namespace sepo::gpusim;

namespace {

// The original RunStats shape, kept here as the baseline the counter rows
// are measured against: one shared relaxed atomic per counter, bumped with
// fetch_add from every thread. Generated from the same counter list.
class SharedAtomicStats {
 public:
#define SEPO_X(field, comment)                                                 \
  void add_##field(std::uint64_t n = 1) noexcept {                             \
    field##_.fetch_add(n, std::memory_order_relaxed);                          \
  }
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
  void add_chain_links(std::uint64_t n = 1) noexcept {
    add_chain_links_walked(n);
  }

  [[nodiscard]] StatsSnapshot snapshot() const noexcept {
    StatsSnapshot s;
#define SEPO_X(field, comment) s.field = field##_.load(std::memory_order_relaxed);
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    return s;
  }

 private:
#define SEPO_X(field, comment) std::atomic<std::uint64_t> field##_{0};
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
};

// The deterministic per-item counter workload shared with the
// CounterShardTest fixture (tests/counter_shard_test.cpp): bumps derived
// from a splitmix of the item index, so totals are independent of threading
// and batch order.
template <typename Stats>
void fixture_kernel(Stats& stats, std::size_t i) {
  std::uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  stats.add_records_scanned();
  stats.add_work_units(x % 97);
  stats.add_hash_ops();
  if (x % 3 == 0)
    stats.add_inserts_new();
  else
    stats.add_combines();
  stats.add_chain_links(x % 5);
  stats.add_key_compare_bytes((x >> 8) % 31);
  stats.add_alloc_ops();
  if (x % 7 == 0) stats.add_alloc_fails();
  if (x % 11 == 0) stats.add_page_acquires();
  stats.add_records_processed();
}

double now_minus(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct BenchResult {
  std::string name;
  std::uint64_t items = 0;
  std::uint64_t reps = 0;
  double wall_seconds = 0;  // best rep
  double ops_per_sec = 0;   // items / wall_seconds
};

// Runs `body()` reps times and keeps the fastest rep: the minimum is the
// least noisy estimator of the code's actual cost under scheduler jitter.
template <typename Body>
BenchResult bench(const std::string& name, std::uint64_t items, int reps,
                  Body&& body) {
  BenchResult r;
  r.name = name;
  r.items = items;
  r.reps = static_cast<std::uint64_t>(reps);
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double s = now_minus(t0);
    if (rep == 0 || s < r.wall_seconds) r.wall_seconds = s;
  }
  r.ops_per_sec = static_cast<double>(items) / r.wall_seconds;
  return r;
}

// Reproduces the original hot path exactly: every bump is a relaxed
// fetch_add on one shared set of atomics, and both the grid body and the
// per-item kernel go through std::function, as the old non-template
// launch/parallel_for did.
void run_atomic_path(ThreadPool& pool, SharedAtomicStats& stats,
                     std::size_t items, std::size_t grid) {
  const std::function<void(std::size_t)> kernel = [&stats](std::size_t i) {
    fixture_kernel(stats, i);
  };
  stats.add_kernel_launches();
  const std::function<void(std::size_t)> body = [&](std::size_t t) {
    for (std::size_t i = t; i < items; i += grid) kernel(i);
  };
  pool.parallel_for(grid, body);
}

// The journal-overhead pair runs this exact kernel twice, differing only in
// whether `j` is null. Both variants pay the splitmix recompute and the
// branch, so the measured delta is the cost of record() itself (~1/11 items
// fire, mirroring the allocator's page-acquire rate in fixture_kernel).
void run_journal_path(ThreadPool& pool, RunStats& stats, EventJournal* j,
                      std::size_t items, std::size_t grid) {
  launch(pool, stats, items,
         [&stats, j](std::size_t i) {
           fixture_kernel(stats, i);
           std::uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull;
           x ^= x >> 30;
           x *= 0xBF58476D1CE4E5B9ull;
           x ^= x >> 27;
           if (x % 11 == 0 && j != nullptr)
             j->record(JournalEventKind::kPageAcquire, i, x % 97);
         },
         {.grid_threads = grid});
}

// Reps of the journal pair (more when --reps asks for more).
constexpr int kJournalPairReps = 41;

struct JournalPair {
  BenchResult disabled, recording;  // each side's best rep
  double overhead_pct = 0;  // median over reps of recording vs disabled
  bool counters_match = false;
};

// Times run_journal_path with the journal null and installed on `pool`.
// Each rep times both sides back to back, alternating which goes first, and
// yields one paired ratio; the overhead is the median ratio. Drifting
// machine load biases both sides of a rep equally, and the median ignores
// the odd rep that ran on a briefly faster or slower core, which would
// decide a ratio of best reps. Ring overwrite is the steady state (a flight
// recorder keeps the newest window), so a modest per-shard capacity
// measures the honest hot-path cost.
JournalPair run_journal_pair(ThreadPool& pool, std::size_t items,
                             std::size_t grid, int reps,
                             const std::string& suffix) {
  RunStats stats_disabled, stats_recording;
  EventJournal journal(pool.worker_count(), /*capacity_per_shard=*/1 << 14);
  const auto timed = [&](bool recording) {
    const auto t0 = std::chrono::steady_clock::now();
    run_journal_path(pool, recording ? stats_recording : stats_disabled,
                     recording ? &journal : nullptr, items, grid);
    return now_minus(t0);
  };
  JournalPair p;
  p.disabled.name = "journal_disabled" + suffix;
  p.recording.name = "journal_event_sharded" + suffix;
  p.disabled.items = p.recording.items = items;
  const int pair_reps = std::max(reps, kJournalPairReps);
  p.disabled.reps = p.recording.reps = static_cast<std::uint64_t>(pair_reps);
  std::vector<double> pct(static_cast<std::size_t>(pair_reps));
  for (int rep = 0; rep < pair_reps; ++rep) {
    const bool disabled_first = rep % 2 == 0;
    const double first = timed(!disabled_first);
    const double second = timed(disabled_first);
    const double sd = disabled_first ? first : second;
    const double sr = disabled_first ? second : first;
    if (rep == 0 || sd < p.disabled.wall_seconds) p.disabled.wall_seconds = sd;
    if (rep == 0 || sr < p.recording.wall_seconds)
      p.recording.wall_seconds = sr;
    pct[static_cast<std::size_t>(rep)] = (sr - sd) / sd * 100.0;
  }
  p.disabled.ops_per_sec = static_cast<double>(items) / p.disabled.wall_seconds;
  p.recording.ops_per_sec =
      static_cast<double>(items) / p.recording.wall_seconds;
  const auto mid = pct.begin() + static_cast<std::ptrdiff_t>(pct.size() / 2);
  std::nth_element(pct.begin(), mid, pct.end());
  p.overhead_pct = *mid;
  p.counters_match = stats_disabled.snapshot() == stats_recording.snapshot();
  return p;
}

// Precomputed key schedule for the insert pair: `order[i]` indexes `keys`.
// Zipf(s) over the key set via an inverted CDF, sampled with a splitmix of
// the item index — deterministic, threading-independent, built before any
// timer starts.
std::vector<std::uint32_t> key_schedule(std::size_t items, std::size_t distinct,
                                        double zipf_s, std::uint64_t seed) {
  std::vector<double> cdf(distinct);
  double total = 0;
  for (std::size_t k = 0; k < distinct; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  std::vector<std::uint32_t> order(items);
  for (std::size_t i = 0; i < items; ++i) {
    std::uint64_t x = (i + seed) * 0x9E3779B97F4A7C15ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    const double u =
        static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    order[i] = static_cast<std::uint32_t>(it - cdf.begin());
  }
  return order;
}

// One timed SEPO-table insert pass: fresh device/table per rep (tables are
// not resettable), only the launch — where every insert happens — inside
// the timer. Returns the launch's wall seconds.
double run_insert_pass(std::size_t workers,
                       const std::vector<std::string>& keys,
                       const std::vector<std::uint32_t>& order) {
  Device dev(16u << 20);
  ThreadPool pool(workers);
  RunStats stats;
  ExecContext ctx(dev, pool, stats);
  core::HashTableConfig tcfg;
  tcfg.org = core::Organization::kCombining;
  tcfg.combiner = core::combine_sum_u64;
  // Bucket array sized so chains average ~32 entries: the deep-chain,
  // larger-than-memory regime the SEPO table exists for (the paper keeps
  // the table bigger than device memory, so the bucket array is starved
  // relative to the key population). Every insert pays a long probe — hot
  // Zipf keys sit at the chain tail because §III-B prepends at the head.
  tcfg.num_buckets = 256;
  tcfg.buckets_per_group = 64;  // keep a few allocation groups
  core::SepoHashTable ht(ctx, tcfg);

  const std::uint64_t one = 1;
  const auto value = std::as_bytes(std::span{&one, 1});
  const auto t0 = std::chrono::steady_clock::now();
  ctx.launch(
      order.size(),
      [&](std::size_t i) { (void)ht.insert(keys[order[i]], value); },
      {.grid_threads = 4096});
  return now_minus(t0);
}

// One insert row under one key distribution: best of `reps` passes.
BenchResult run_insert_bench(const char* dist, std::size_t workers, int reps,
                             std::size_t items, std::size_t distinct,
                             double zipf_s) {
  std::vector<std::string> keys(distinct);
  for (std::size_t k = 0; k < distinct; ++k)
    keys[k] = "key" + std::to_string(k) + "x";
  const std::vector<std::uint32_t> order =
      key_schedule(items, distinct, zipf_s, 7);

  BenchResult r;
  r.name = std::string("insert_scalar_") + dist;
  r.items = items;
  r.reps = static_cast<std::uint64_t>(reps);
  for (int rep = 0; rep < reps; ++rep) {
    const double s = run_insert_pass(workers, keys, order);
    if (rep == 0 || s < r.wall_seconds) r.wall_seconds = s;
  }
  r.ops_per_sec = static_cast<double>(items) / r.wall_seconds;
  return r;
}

// The commit the source tree is at, suffixed "-dirty" when the tree has
// uncommitted changes; "unknown" outside a git checkout.
std::string commit_id() {
  // Without its own .git, git would report an enclosing repository's HEAD.
  if (!std::filesystem::exists(SEPO_SOURCE_DIR "/.git")) return "unknown";
  FILE* p = popen("git -C '" SEPO_SOURCE_DIR
                  "' describe --always --dirty --abbrev=40 2>/dev/null",
                  "r");
  if (p == nullptr) return "unknown";
  char buf[64] = {};
  const bool read = std::fgets(buf, sizeof buf, p) != nullptr;
  const bool ok = pclose(p) == 0 && read;
  std::string id = ok ? buf : "";
  while (!id.empty() && (id.back() == '\n' || id.back() == '\r'))
    id.pop_back();
  return id.empty() ? "unknown" : id;
}

// The host a results file was measured on (the fields jobbench records).
// `sepo_cli bench-diff` compares only files whose fields other than the
// commit match.
obs::Json host_fingerprint(std::size_t workers) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  obs::Json fp = obs::Json::object();
  fp.set("hardware_threads",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  fp.set("workers", static_cast<std::uint64_t>(workers));
  fp.set("build_type", SEPO_BUILD_TYPE);
  fp.set("compiler", compiler);
  fp.set("commit", commit_id());
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  // Written into the results file, so it says how to regenerate itself.
  std::string command = "host_perf";
  for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
  const obs::OutputOptions out = obs::OutputOptions::from_args(argc, argv);
  const std::size_t workers = apps::pool_workers_from_args(argc, argv);
  bool tiny = false;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      tiny = true;
    } else if (a == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps <= 0) reps = 1;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      std::fprintf(stderr,
                   "usage: host_perf [--tiny] [--workers N] [--reps N] "
                   "[--metrics-out=FILE]\n");
      return 1;
    }
  }

  const std::size_t items = tiny ? 200'000 : 2'000'000;
  const std::size_t grid = 4096;
  ThreadPool pool(workers);

  std::printf("== host_perf: wall-clock cost of the simulate-and-meter hot "
              "path ==\n");
  std::printf("   workers: %zu, counter items: %zu, reps: %d (best kept)%s\n\n",
              pool.worker_count(), items, reps, tiny ? ", --tiny" : "");

  std::vector<BenchResult> results;

  // Hot-path rows: identical counter math through the old shared atomics,
  // a kernel launch, and persistent parties; the totals must be
  // bit-identical (that is the sharding invariant).
  SharedAtomicStats stats_atomic;
  const BenchResult atomic = bench("counter_bump_atomic", items, reps, [&] {
    run_atomic_path(pool, stats_atomic, items, grid);
  });
  RunStats stats_sharded;
  const BenchResult sharded = bench("counter_bump_sharded", items, reps, [&] {
    launch(pool, stats_sharded, items,
           [&stats_sharded](std::size_t i) { fixture_kernel(stats_sharded, i); },
           {.grid_threads = grid});
  });
  RunStats stats_parties;
  const std::size_t parties = pool.worker_count();
  results.push_back(atomic);
  results.push_back(sharded);
  results.push_back(bench("counter_bump_parties", items, reps, [&] {
    pool.run_parties(parties, [&](std::size_t p) {
      for (std::size_t i = items * p / parties; i < items * (p + 1) / parties;
           ++i)
        fixture_kernel(stats_parties, i);
    });
  }));
  StatsSnapshot parties_total = stats_parties.snapshot();
  parties_total.kernel_launches = stats_sharded.snapshot().kernel_launches;
  if (stats_atomic.snapshot() != stats_sharded.snapshot() ||
      parties_total != stats_sharded.snapshot()) {
    std::fprintf(stderr,
                 "FATAL: sharded counter totals diverge from the atomic "
                 "path\n");
    return 1;
  }

  // Flight-recorder overhead pair, gated at 10% by bench-check as
  // journal_overhead_pct. It is measured on a 1-worker pool: journal shards
  // are per worker, so one worker prices record() itself, while at 2+
  // workers the ratio swings with where the OS places the threads (tiny
  // runs read -32% to +25%). The pool-width pair is still timed and
  // reported as the journal_disabled / journal_event_sharded rows.
  ThreadPool solo(1);
  const JournalPair gated = run_journal_pair(solo, items, grid, reps, "_1w");
  const JournalPair wide = run_journal_pair(pool, items, grid, reps, "");
  if (!gated.counters_match || !wide.counters_match) {
    std::fprintf(stderr,
                 "FATAL: recording journal events perturbed the metered "
                 "counters\n");
    return 1;
  }
  results.push_back(wide.disabled);
  results.push_back(wide.recording);
  results.push_back(gated.disabled);
  results.push_back(gated.recording);
  const double journal_overhead_pct = gated.overhead_pct;

  // Scheduling overhead alone: a kernel the compiler cannot delete but that
  // does no metering or work.
  RunStats stats_empty;
  results.push_back(bench("empty_dispatch", items, reps, [&] {
    launch(pool, stats_empty, items,
           [](std::size_t i) { asm volatile("" : : "r"(i)); },
           {.grid_threads = grid});
  }));

  // SEPO-table inserts under the Word-Count-shaped Zipf(1.05) skew and
  // under uniform keys as the low-reuse control.
  const std::size_t insert_items = tiny ? 150'000 : 1'000'000;
  results.push_back(run_insert_bench("zipf", workers, reps, insert_items,
                                     /*distinct=*/8192, /*zipf_s=*/1.05));
  results.push_back(run_insert_bench("uniform", workers, reps, insert_items,
                                     /*distinct=*/8192, /*zipf_s=*/0.0));

  // End-to-end anchor: one Page View Count SEPO-GPU run, the fig6 workload.
  {
    const apps::AppInfo& pvc = *apps::find_app("pvc");
    const apps::Engine& sepo = *apps::find_engine("sepo-gpu");
    const std::size_t bytes =
        tiny ? (64u << 10) : apps::table1_bytes(pvc.table1_key(), 2);
    const std::string input = pvc.generate(bytes, 1001);
    apps::EngineConfig ecfg;
    ecfg.gpu.pool_workers = workers;
    results.push_back(bench("fig6_pvc_gpu", bytes, reps, [&] {
      const apps::RunResult r = sepo.run(pvc, input, ecfg);
      if (r.error || r.checksum == 0) {
        std::fprintf(stderr, "FATAL: pvc run failed\n");
        std::exit(1);
      }
    }));
  }

  // End-to-end rows at paper dataset #4: one full engine run per rep, on
  // the inputs of the jobbench pc-group, dna-spill and wc-resident jobs
  // (seed 1).
  for (const auto& [row, app_key, engine_name] :
       {std::tuple{"pc_sepo_mr_d4", "pc", "sepo-mr"},
        std::tuple{"dna_sepo_gpu_d4", "dna", "sepo-gpu"},
        std::tuple{"pc_phoenix_d4", "pc", "phoenix"},
        std::tuple{"wc_phoenix_d4", "wc", "phoenix"},
        std::tuple{"dna_cpu_d4", "dna", "cpu"},
        std::tuple{"dna_pinned_d4", "dna", "pinned"}}) {
    const apps::AppInfo& app = *apps::find_app(app_key);
    const apps::Engine& engine = *apps::find_engine(engine_name);
    const std::size_t bytes =
        tiny ? (64u << 10) : apps::table1_bytes(app.table1_key(), 4);
    const std::string input = app.generate(bytes, 1);
    apps::EngineConfig ecfg;
    ecfg.gpu.pool_workers = workers;
    ecfg.cpu.pool_workers = workers;
    results.push_back(bench(row, bytes, reps, [&] {
      const apps::RunResult r = engine.run(app, input, ecfg);
      if (r.error || r.checksum == 0) {
        std::fprintf(stderr, "FATAL: %s run failed\n", row);
        std::exit(1);
      }
    }));
  }

  TablePrinter table({"bench", "items", "wall (ms)", "Mops/s"});
  for (const BenchResult& r : results)
    table.add_row({r.name, TablePrinter::fmt_int(r.items),
                   TablePrinter::fmt(r.wall_seconds * 1e3, 3),
                   TablePrinter::fmt(r.ops_per_sec / 1e6, 2)});
  table.print(std::cout);

  const double speedup = atomic.wall_seconds / sharded.wall_seconds;
  std::printf("\ncounter-bump speedup (sharded vs atomic hot path): %.2fx\n",
              speedup);
  std::printf("journal overhead (event recording vs disabled): %.2f%% at 1 "
              "worker (gated), %.2f%% at %zu workers\n",
              journal_overhead_pct, wide.overhead_pct, pool.worker_count());

  if (out.metrics_enabled()) {
    obs::Json root = obs::Json::object();
    root.set("schema_version", obs::kBenchSchemaVersion);
    root.set("tool", "host_perf");
    root.set("command", command);
    root.set("workers", static_cast<std::uint64_t>(pool.worker_count()));
    root.set("tiny", tiny);
    root.set("fingerprint", host_fingerprint(pool.worker_count()));
    root.set("counter_bump_speedup", speedup);
    root.set("journal_overhead_pct", journal_overhead_pct);
    obs::Json benches = obs::Json::array();
    for (const BenchResult& r : results) {
      obs::Json b = obs::Json::object();
      b.set("name", r.name);
      b.set("items", r.items);
      b.set("reps", r.reps);
      b.set("wall_seconds", r.wall_seconds);
      b.set("ops_per_sec", r.ops_per_sec);
      benches.push_back(std::move(b));
    }
    root.set("benches", std::move(benches));
    std::ofstream f(out.metrics_path);
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   out.metrics_path.c_str());
      return 1;
    }
    root.write(f, 2);
    f << '\n';
    if (!f.good()) {
      std::fprintf(stderr, "write to %s failed\n", out.metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench results written to %s\n",
                 out.metrics_path.c_str());
  }
  return 0;
}
