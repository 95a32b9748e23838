// Per-worker counter shards (gpusim::ShardedCounters, DESIGN.md §5a "host
// execution performance").
//
// RunStats and PcieBus keep one counter shard per pool worker plus a host
// shard, on every thread, and snapshot() sums them. Because uint64 addition
// is commutative, the sums must be *bit-identical* to what one shared set of
// atomics would count — that invariant is what keeps every simulated result
// unchanged by the metering work. The fixture totals below were recorded
// against the original single-atomic RunStats implementation; they pin the
// invariant across future refactors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/pcie.hpp"
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
  EXPECT_EQ(stats.snapshot(), recorded_fixture());
}

TEST(CounterShardTest, ShardedPathEqualsAtomicPath) {
  // The same workload through both bump shapes: pool-worker shards (inside
  // launch) and the host shard's fetch_add (direct bumps outside any pool
  // job). Bit-identical totals, modulo the launch counter the host loop never
  // sees.
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

// The fixture minus the launch: what the workload alone counts when it runs
// outside gpusim::launch.
StatsSnapshot recorded_fixture_without_launch() {
  StatsSnapshot f = recorded_fixture();
  f.kernel_launches = 0;
  return f;
}

// Runs fixture items [lo, hi) of an even split of kItems into `parts`.
void fixture_part(RunStats& stats, std::size_t part, std::size_t parts) {
  for (std::size_t i = kItems * part / parts; i < kItems * (part + 1) / parts;
       ++i)
    fixture_kernel(stats, i);
}

TEST(CounterShardTest, RunPartiesCountsExactlyAtAnyWorkerCount) {
  // The CPU-baseline shape: persistent parties through run_parties, with no
  // launch and no scope around them. More parties than workers, so some
  // worker runs several parties into its one shard.
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(workers);
    RunStats stats;
    constexpr std::size_t kParties = 8;
    pool.run_parties(kParties, [&stats](std::size_t party) {
      fixture_part(stats, party, kParties);
    });
    EXPECT_EQ(stats.snapshot(), recorded_fixture_without_launch())
        << "workers=" << workers;
  }
}

TEST(CounterShardTest, RawThreadsShareTheHostShardWithoutLoss) {
  // Threads outside any pool all land on the host shard; its fetch_add must
  // not lose a count however many of them bump at once.
  RunStats stats;
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&stats, t] { fixture_part(stats, t, kThreads); });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(stats.snapshot(), recorded_fixture_without_launch());
}

TEST(CounterShardTest, HostAndPoolBumpsInterleaveExactly) {
  // A raw thread bumps the host shard while a pool job bumps the worker
  // shards of the same RunStats, and snapshots taken meanwhile never run
  // backwards (the tsan preset checks the concurrent read is race-free).
  ThreadPool pool(4);
  RunStats stats;
  std::atomic<bool> done{false};
  std::thread host([&] {
    fixture_part(stats, 0, 2);
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = stats.snapshot().hash_ops;
      EXPECT_GE(now, last);
      last = now;
    }
  });
  pool.run_parties(4, [&stats](std::size_t party) {
    for (std::size_t i = kItems / 2 + (kItems / 2) * party / 4;
         i < kItems / 2 + (kItems / 2) * (party + 1) / 4; ++i)
      fixture_kernel(stats, i);
  });
  done.store(true, std::memory_order_release);
  host.join();
  EXPECT_EQ(stats.snapshot(), recorded_fixture_without_launch());
}

TEST(CounterShardTest, PcieRemoteFromKernelSumsExactly) {
  // The pinned baseline's shape: every virtual thread meters small remote
  // accesses on the device bus from inside a kernel.
  std::uint64_t want_bytes = 0;
  for (std::size_t i = 0; i < kItems; ++i) want_bytes += 8 + i % 61;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    RunStats stats;
    PcieBus bus;
    launch(pool, stats, kItems,
           [&bus](std::size_t i) { bus.remote(8 + i % 61); },
           {.grid_threads = kGrid});
    bus.h2d(4096);  // host-side bulk copy: the host shard
    const PcieSnapshot s = bus.snapshot();
    EXPECT_EQ(s.remote_txns, kItems) << "workers=" << workers;
    EXPECT_EQ(s.remote_bytes, want_bytes) << "workers=" << workers;
    EXPECT_EQ(s.h2d_txns, 1u);
    EXPECT_EQ(s.h2d_bytes, 4096u);
    bus.reset();
    EXPECT_EQ(bus.snapshot().remote_txns, 0u);
  }
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
