// Microbenchmark — raw hash-table operation throughput (host wall-clock,
// google-benchmark). Complements the modelled-time benches: exercises the
// real data-structure code paths (§VI-C "the efficiency of the basic design
// of our hash table, including dynamic memory allocation and
// synchronization").
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "baselines/chained_host_table.hpp"
#include "common/random.hpp"
#include "core/hash_table.hpp"
#include "gpusim/device.hpp"
#include "gpusim/thread_pool.hpp"

using namespace sepo;

namespace {

std::vector<std::string> make_keys(std::size_t n, std::size_t distinct) {
  Rng rng(7);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back("key-" + std::to_string(rng.below(distinct)));
  return keys;
}

void BM_SepoInsertCombining(benchmark::State& state) {
  const auto keys = make_keys(1u << 14, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    gpusim::Device dev(16u << 20);
    gpusim::ThreadPool pool(1);
    gpusim::RunStats stats;
    gpusim::ExecContext ctx(dev, pool, stats);
    core::HashTableConfig cfg;
    cfg.combiner = core::combine_sum_u64;
    cfg.num_buckets = 1u << 14;
    core::SepoHashTable ht(ctx, cfg);
    state.ResumeTiming();
    for (const auto& k : keys) benchmark::DoNotOptimize(ht.insert_u64(k, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_SepoInsertCombining)->Arg(64)->Arg(4096)->Arg(1 << 14);

void BM_SepoInsertBasic(benchmark::State& state) {
  const auto keys = make_keys(1u << 14, 1u << 13);
  for (auto _ : state) {
    state.PauseTiming();
    gpusim::Device dev(16u << 20);
    gpusim::ThreadPool pool(1);
    gpusim::RunStats stats;
    gpusim::ExecContext ctx(dev, pool, stats);
    core::HashTableConfig cfg;
    cfg.org = core::Organization::kBasic;
    cfg.num_buckets = 1u << 14;
    core::SepoHashTable ht(ctx, cfg);
    state.ResumeTiming();
    for (const auto& k : keys) benchmark::DoNotOptimize(ht.insert_u64(k, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_SepoInsertBasic);

void BM_SepoInsertMultiValued(benchmark::State& state) {
  const auto keys = make_keys(1u << 14, 1u << 10);
  for (auto _ : state) {
    state.PauseTiming();
    gpusim::Device dev(16u << 20);
    gpusim::ThreadPool pool(1);
    gpusim::RunStats stats;
    gpusim::ExecContext ctx(dev, pool, stats);
    core::HashTableConfig cfg;
    cfg.org = core::Organization::kMultiValued;
    cfg.num_buckets = 1u << 14;
    core::SepoHashTable ht(ctx, cfg);
    state.ResumeTiming();
    for (const auto& k : keys)
      benchmark::DoNotOptimize(
          ht.insert(k, std::as_bytes(std::span{k.data(), k.size()})));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_SepoInsertMultiValued);

void BM_CpuInsertCombining(benchmark::State& state) {
  const auto keys = make_keys(1u << 14, 4096);
  for (auto _ : state) {
    state.PauseTiming();
    gpusim::RunStats stats;
    baselines::ChainedHostTable ht(
        stats, {.num_buckets = 1u << 14, .combiner = core::combine_sum_u64});
    state.ResumeTiming();
    for (const auto& k : keys) ht.insert_u64(0, k, 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_CpuInsertCombining);

void BM_HostTableLookup(benchmark::State& state) {
  gpusim::Device dev(16u << 20);
  gpusim::ThreadPool pool(1);
  gpusim::RunStats stats;
  gpusim::ExecContext ctx(dev, pool, stats);
  core::HashTableConfig cfg;
  cfg.combiner = core::combine_sum_u64;
  core::SepoHashTable ht(ctx, cfg);
  const auto keys = make_keys(1u << 14, 1u << 12);
  ht.begin_iteration();
  for (const auto& k : keys) (void)ht.insert_u64(k, 1);
  ht.end_iteration();
  const core::HostTable t = ht.finalize();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup_u64(keys[i]));
    i = (i + 1) & ((1u << 14) - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HostTableLookup);

}  // namespace

BENCHMARK_MAIN();
