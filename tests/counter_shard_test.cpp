// Sharded-counter equivalence (gpusim::WorkerStats, DESIGN.md §5 "host
// execution performance").
//
// gpusim::launch installs one counter shard per pool worker for the kernel's
// duration and merges them back at kernel exit. Because uint64 addition is
// commutative, the merged totals must be *bit-identical* to what the
// all-atomic metering path produces — that invariant is what keeps every
// simulated result unchanged by the perf work. The fixture totals below were
// recorded against the pre-change, single-atomic RunStats implementation;
// they pin the invariant across future refactors.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/thread_pool.hpp"
#include "gpusim/trace_hook.hpp"

namespace {

using namespace sepo::gpusim;

// Deterministic per-item counter workload (splitmix of the item index):
// totals are independent of threading, batching, and execution order. Shared
// with bench/host_perf.cpp. Do not change it — the fixture totals below were
// recorded against exactly this kernel.
void fixture_kernel(RunStats& stats, std::size_t i) {
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

constexpr std::size_t kItems = 10000;
constexpr std::size_t kGrid = 256;

// Totals recorded from the pre-change implementation (single shared-atomic
// RunStats, type-erased launch) running fixture_kernel over kItems items
// with kGrid grid threads on a 4-worker pool.
StatsSnapshot recorded_fixture() {
  StatsSnapshot f;
  f.records_processed = 10000u;
  f.records_scanned = 10000u;
  f.work_units = 474944u;
  f.hash_ops = 10000u;
  f.key_compare_bytes = 148877u;
  f.chain_links_walked = 20057u;
  f.inserts_new = 3390u;
  f.combines = 6610u;
  f.alloc_ops = 10000u;
  f.alloc_fails = 1441u;
  f.page_acquires = 895u;
  f.kernel_launches = 1u;
  return f;
}

TEST(CounterShardTest, MergedTotalsMatchPreChangeFixture) {
  ThreadPool pool(4);
  RunStats stats;
  launch(pool, stats, kItems,
         [&stats](std::size_t i) { fixture_kernel(stats, i); },
         {.grid_threads = kGrid});
  EXPECT_FALSE(stats.sharded()) << "launch must merge shards at kernel exit";
  EXPECT_EQ(stats.snapshot(), recorded_fixture());
}

TEST(CounterShardTest, ShardedPathEqualsAtomicPath) {
  // The same workload through both metering paths: sharded (inside launch)
  // and all-atomic (direct bumps outside any launch). Bit-identical totals,
  // modulo the launch counter the atomic path never sees.
  ThreadPool pool(4);
  RunStats sharded;
  launch(pool, sharded, kItems,
         [&sharded](std::size_t i) { fixture_kernel(sharded, i); },
         {.grid_threads = kGrid});

  RunStats atomic;
  for (std::size_t i = 0; i < kItems; ++i) fixture_kernel(atomic, i);
  atomic.add_kernel_launches();
  EXPECT_EQ(sharded.snapshot(), atomic.snapshot());
}

TEST(CounterShardTest, FixtureStableAcrossWorkerCounts) {
  // Shard count follows the pool size; totals must not.
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(workers);
    RunStats stats;
    launch(pool, stats, kItems,
           [&stats](std::size_t i) { fixture_kernel(stats, i); },
           {.grid_threads = kGrid});
    EXPECT_EQ(stats.snapshot(), recorded_fixture()) << "workers=" << workers;
  }
}

TEST(CounterShardTest, AtomicPathUsedOutsideLaunch) {
  // Host-side bumps (e.g. CPU-baseline parties) never see shards installed.
  RunStats stats;
  EXPECT_FALSE(stats.sharded());
  stats.add_hash_ops(7);
  EXPECT_EQ(stats.snapshot().hash_ops, 7u);
}

TEST(CounterShardTest, ShardScopeMergesOnce) {
  RunStats stats;
  {
    StatsShardScope scope(stats, 2);
    ASSERT_TRUE(stats.sharded());
    stats.add_hash_ops(3);  // lands in shard 0 (calling thread)
    EXPECT_EQ(stats.snapshot().hash_ops, 0u) << "merge happens at scope exit";
    stats.end_sharding();  // explicit early end: scope exit must be a no-op
    EXPECT_EQ(stats.snapshot().hash_ops, 3u);
  }
  EXPECT_EQ(stats.snapshot().hash_ops, 3u);
}

// Hook that records the deltas launch() reports.
class DeltaRecorder : public TraceHook {
 public:
  std::vector<StatsSnapshot> deltas;
  std::vector<std::size_t> items;
  void on_kernel(const StatsSnapshot& delta, std::size_t n_items) override {
    deltas.push_back(delta);
    items.push_back(n_items);
  }
  void on_h2d(std::uint64_t) override {}
  void on_d2h(std::uint64_t) override {}
  void on_remote(std::uint64_t) override {}
  void on_flush(std::uint64_t, std::uint64_t) override {}
  void on_iteration_begin(std::uint32_t) override {}
  void on_iteration_end(std::uint32_t) override {}
};

TEST(CounterShardTest, TraceHookSeesMergedDelta) {
  // The trace hook observes totals at kernel exit — after the shard merge —
  // so its delta must equal the whole fixture, exactly as pre-change.
  ThreadPool pool(4);
  RunStats stats;
  DeltaRecorder rec;
  stats.set_trace_hook(&rec);
  launch(pool, stats, kItems,
         [&stats](std::size_t i) { fixture_kernel(stats, i); },
         {.grid_threads = kGrid});
  stats.set_trace_hook(nullptr);
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], recorded_fixture());
  EXPECT_EQ(rec.items[0], kItems);
}

}  // namespace
