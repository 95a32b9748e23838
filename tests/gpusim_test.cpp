// Unit tests for the virtual-GPU substrate: thread pool, device memory,
// kernel launch, device locks, PCIe metering, cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/pcie.hpp"
#include "gpusim/thread_pool.hpp"

namespace sepo::gpusim {
namespace {

// ---- thread pool ----

TEST(ThreadPoolTest, ParallelForVisitsEachItemOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(ThreadPoolTest, SequentialJobsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(97, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 97);
  }
}

TEST(ThreadPoolTest, RunPartiesGivesDistinctIds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(8);
  pool.run_parties(8, [&](std::size_t party) { seen[party].fetch_add(1); });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolTest, WorkerIndexStaysInRange) {
  // current_worker_index() addresses per-worker buffers sized to
  // worker_count(); an out-of-range index would corrupt neighboring memory.
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  std::vector<std::atomic<int>> seen(pool.worker_count());
  // Helpers hold their items until the submitter has run one, so a
  // descheduled submitter cannot find every batch already claimed; the
  // deadline turns a submitter that never participates into a failure below
  // instead of a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  pool.parallel_for(100000, [&](std::size_t) {
    const std::size_t w = current_worker_index();
    if (w >= seen.size()) {
      bad.fetch_add(1);
      return;
    }
    seen[w].fetch_add(1);
    while (w != 0 && seen[0].load() == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(seen[0].load(), 0) << "submitting thread participates as 0";
}

TEST(ThreadPoolTest, SubmitterUsesHostSlotOutsideJobs) {
  // Meters tell pool workers (single-writer shards) from everyone else (the
  // shared host shard) by slot, so the submitter must hold slot 0 only while
  // it runs a job.
  ThreadPool pool(2);
  EXPECT_EQ(current_worker_slot(), kHostSlot);
  EXPECT_EQ(current_worker_index(), 0u);
  std::atomic<int> bad{0};
  pool.run_parties(2, [&](std::size_t) {
    if (current_worker_slot() >= pool.worker_count()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(current_worker_slot(), kHostSlot);
}

TEST(ThreadPoolTest, RejectsMoreWorkersThanMeterShards) {
  EXPECT_THROW(ThreadPool(kMaxPoolWorkers + 1), std::invalid_argument);
  EXPECT_LE(ThreadPool().worker_count(), kMaxPoolWorkers);
}

TEST(ThreadPoolTest, StressReuseManyRoundsVaryingSizes) {
  // Rapid-fire reuse across wildly varying job sizes: exercises the
  // publish/claim/drain handshake (job_seq_, in_flight, cv_done_) under the
  // tsan preset via the sanitize label.
  ThreadPool pool(4);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = static_cast<std::size_t>((round * 37) % 613) + 1;
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(n, [&](std::size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ConcurrentSubmittersSerializeSafely) {
  // parallel_for from several foreign threads at once: the pool's single job
  // slot must serialize them without losing items or tearing a live Job.
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 50;
  std::vector<std::atomic<std::size_t>> sums(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t n = static_cast<std::size_t>(100 + s * 13 + round);
        pool.parallel_for(n,
                          [&](std::size_t i) { sums[s].fetch_add(i + 1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (int s = 0; s < kSubmitters; ++s) {
    std::size_t expect = 0;
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t n = static_cast<std::size_t>(100 + s * 13 + round);
      expect += n * (n + 1) / 2;
    }
    EXPECT_EQ(sums[s].load(), expect) << "submitter " << s;
  }
}

TEST(ThreadPoolTest, InterleavedParallelForAndParties) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(501, [&](std::size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 501u * 500u / 2);
    std::vector<std::atomic<int>> seen(4);
    pool.run_parties(4, [&](std::size_t p) { seen[p].fetch_add(1); });
    for (auto& s : seen) ASSERT_EQ(s.load(), 1);
  }
}

// ---- device ----

TEST(DeviceTest, StaticAllocationsAreAlignedAndDisjoint) {
  Device dev(1u << 20);
  const DevPtr a = dev.alloc_static(100, 8);
  const DevPtr b = dev.alloc_static(100, 64);
  EXPECT_NE(a, kDevNull);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(DeviceTest, NullOffsetNeverAllocated) {
  Device dev(1u << 16);
  EXPECT_GE(dev.alloc_static(8), 64u);  // first 64 bytes burned for null
}

TEST(DeviceTest, ThrowsWhenExhausted) {
  Device dev(4096);
  (void)dev.alloc_static(3000);
  EXPECT_THROW((void)dev.alloc_static(3000), std::bad_alloc);
}

TEST(DeviceTest, OutOfMemoryCarriesDiagnostics) {
  Device dev(4096);
  (void)dev.alloc_static(3000);
  try {
    (void)dev.alloc_static(2000);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 2000u);
    EXPECT_GE(e.used(), 3000u);  // includes the burned null region
    EXPECT_EQ(e.capacity(), 4096u);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2000"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4096"), std::string::npos) << msg;
  }
}

TEST(DeviceTest, MemFreeAccountsForAlignment) {
  Device dev(1u << 16);
  (void)dev.alloc_static(100);
  const std::size_t free = dev.mem_free(64);
  // The next 64-aligned allocation of exactly `free` bytes must succeed.
  EXPECT_NO_THROW((void)dev.alloc_static(free, 64));
  EXPECT_THROW((void)dev.alloc_static(1), std::bad_alloc);
}

TEST(DeviceTest, CopiesAreMeteredOnTheBus) {
  Device dev(1u << 16);
  const DevPtr p = dev.alloc_static(256);
  char host[256] = {42};
  dev.copy_h2d(p, host, 256);
  char back[256] = {};
  dev.copy_d2h(back, p, 128);
  const PcieSnapshot s = dev.bus().snapshot();
  EXPECT_EQ(s.h2d_bytes, 256u);
  EXPECT_EQ(s.h2d_txns, 1u);
  EXPECT_EQ(s.d2h_bytes, 128u);
  EXPECT_EQ(back[0], 42);
}

// ---- launch ----

TEST(LaunchTest, GridStrideCoversAllItems) {
  ThreadPool pool(2);
  RunStats stats;
  std::vector<std::atomic<int>> hits(10000);
  launch(pool, stats, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
         {.grid_threads = 64});
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_EQ(stats.snapshot().kernel_launches, 1u);
}

TEST(LaunchTest, DefaultGridIsOneThreadPerItem) {
  ThreadPool pool(2);
  RunStats stats;
  std::atomic<int> n{0};
  launch(pool, stats, 100, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
}

TEST(DeviceLockTest, MutualExclusion) {
  ThreadPool pool(4);
  RunStats stats;
  DeviceLock lock;
  std::int64_t counter = 0;  // protected by `lock`
  pool.parallel_for(20000, [&](std::size_t) {
    DeviceLockGuard g(lock, stats);
    ++counter;
  });
  EXPECT_EQ(counter, 20000);
  EXPECT_EQ(stats.snapshot().lock_acquires, 20000u);
}

TEST(DeviceLockTest, BackoffUnderHeavyContentionStaysExact) {
  // Many more virtual threads than workers, all hammering one lock: the
  // bounded-exponential-backoff path must preserve mutual exclusion and
  // exact accounting.
  ThreadPool pool(8);
  RunStats stats;
  DeviceLock lock;
  std::int64_t counter = 0;  // protected by `lock`
  launch(pool, stats, 50000,
         [&](std::size_t) {
           DeviceLockGuard g(lock, stats);
           ++counter;
         },
         {.grid_threads = 512});
  EXPECT_EQ(counter, 50000);
  EXPECT_EQ(stats.snapshot().lock_acquires, 50000u);
}

TEST(DeviceLockTest, ContendedAcquireBacksOffUntilReleased) {
  // Deterministic contention (host core count notwithstanding): the main
  // thread holds the lock until the waiter has provably entered the backoff
  // loop (lock_contended is recorded before the first retry spin).
  RunStats stats;
  DeviceLock lock;
  lock.lock(stats);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock.lock(stats);
    acquired.store(true, std::memory_order_release);
    lock.unlock();
  });
  while (stats.snapshot().lock_contended == 0) std::this_thread::yield();
  // The waiter is spinning in the backoff loop; mutual exclusion holds.
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
  EXPECT_EQ(stats.snapshot().lock_acquires, 2u);
  EXPECT_EQ(stats.snapshot().lock_contended, 1u);
}

TEST(DeviceLockTest, TryLockReportsHeldState) {
  RunStats stats;
  DeviceLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// ---- pcie ----

TEST(PcieTest, BulkTimeIsLatencyPlusBandwidth) {
  PcieBus bus({.bandwidth_bytes_per_s = 1e9, .latency_s = 1e-6});
  // 10 txns x 1us + 1e6 bytes / 1e9 B/s = 10us + 1000us
  EXPECT_NEAR(bus.params().bulk_time(1000000, 10), 1.01e-3, 1e-9);
}

TEST(PcieTest, CountersAccumulate) {
  PcieBus bus;
  bus.h2d(100);
  bus.h2d(200);
  bus.d2h(50);
  bus.remote(8);
  bus.remote(8);
  const PcieSnapshot s = bus.snapshot();
  EXPECT_EQ(s.h2d_bytes, 300u);
  EXPECT_EQ(s.h2d_txns, 2u);
  EXPECT_EQ(s.d2h_txns, 1u);
  EXPECT_EQ(s.remote_bytes, 16u);
  EXPECT_EQ(s.remote_txns, 2u);
}

TEST(PcieTest, RemoteAccessesCostMoreThanBulkPerByte) {
  PcieBus bus;
  const double bulk = bus.params().bulk_time(1u << 20, 1);
  // 64-byte transactions.
  const double remote = bus.params().remote_time(1u << 20, 16384);
  EXPECT_GT(remote, bulk * 5);
}

// ---- cost model ----

TEST(CostModelTest, MoreWorkCostsMoreTime) {
  StatsSnapshot a, b;
  a.work_units = 1000;
  b.work_units = 2000;
  EXPECT_LT(compute_time(kGpuDesc, a), compute_time(kGpuDesc, b));
  EXPECT_LT(compute_time(kCpuDesc, a), compute_time(kCpuDesc, b));
}

TEST(CostModelTest, GpuBeatsCpuOnRawThroughput) {
  StatsSnapshot s;
  s.work_units = 100u << 20;
  EXPECT_LT(compute_time(kGpuDesc, s), compute_time(kCpuDesc, s));
}

TEST(CostModelTest, DivergenceOnlyHurtsTheGpu) {
  StatsSnapshot s;
  s.divergent_units = 1u << 20;
  EXPECT_GT(compute_time(kGpuDesc, s), 0.0);
  EXPECT_EQ(compute_time(kCpuDesc, s), 0.0);
}

TEST(CostModelTest, HotLockSerializationKicksInAboveFairShare) {
  SerializationInputs fair{.total_lock_ops = 2048 * 100,
                           .max_same_lock_ops = 100,
                           .serial_atomic_ops = 0};
  EXPECT_EQ(serialization_time(kGpuDesc, fair), 0.0);
  SerializationInputs hot{.total_lock_ops = 2048 * 100,
                          .max_same_lock_ops = 50000,
                          .serial_atomic_ops = 0};
  EXPECT_GT(serialization_time(kGpuDesc, hot), 0.0);
}

TEST(CostModelTest, CpuToleratesHotterLocksThanGpu) {
  // The same hot-key distribution hurts a 2048-context device long before an
  // 8-thread CPU (paper §VI-B on Word Count).
  SerializationInputs s{.total_lock_ops = 100000,
                        .max_same_lock_ops = 7000,
                        .serial_atomic_ops = 0};
  EXPECT_GT(serialization_time(kGpuDesc, s), serialization_time(kCpuDesc, s));
}

TEST(CostModelTest, SerialAtomicsArePureOverhead) {
  SerializationInputs s{.total_lock_ops = 0,
                        .max_same_lock_ops = 0,
                        .serial_atomic_ops = 1000000};
  EXPECT_NEAR(serialization_time(kGpuDesc, s),
              1e6 * kGpuDesc.sec_per_serial_atomic, 1e-12);
}

}  // namespace
}  // namespace sepo::gpusim
