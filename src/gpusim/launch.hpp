// SIMT-style kernel launch on the virtual device.
//
// A "kernel" is a callable executed once per virtual thread id over a grid.
// Virtual threads are multiplexed onto the host ThreadPool. Kernel code may
// use std::atomic operations on device memory (standing in for CUDA atomics)
// and the sepo::alloc allocator. Divergence and contention are *counted*
// (RunStats) rather than slowing the host down; the CostModel prices them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>

#include "gpusim/counters.hpp"
#include "gpusim/thread_pool.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::gpusim {

inline constexpr std::size_t kWarpSize = 32;

struct LaunchConfig {
  // Number of virtual threads in the grid. Defaults to one thread per work
  // item when 0.
  std::size_t grid_threads = 0;
};

namespace detail {

// Distributes items over grid threads and runs them on the pool. Every stats
// bump from inside the kernel lands in the executing worker's own counter
// shard (RunStats); the pool's join orders those writes before any snapshot.
template <typename Kernel>
void run_grid(ThreadPool& pool, std::size_t n_items, Kernel& kernel,
              const LaunchConfig& cfg) {
  const std::size_t grid = cfg.grid_threads == 0 ? n_items : cfg.grid_threads;
  if (grid >= n_items) {
    pool.parallel_for(n_items, kernel);
    return;
  }
  // Grid-stride loop: virtual thread t handles items t, t+grid, t+2*grid, ...
  pool.parallel_for(grid, [&](std::size_t t) {
    for (std::size_t i = t; i < n_items; i += grid) kernel(i);
  });
}

}  // namespace detail

// Launches `kernel(item)` for every item in [0, n_items). Items are
// distributed over grid threads in a grid-stride loop, like the canonical
// CUDA pattern; grid threads are in turn multiplexed onto the pool. The
// kernel type flows through to the pool's batch loop, so the per-item call
// inlines instead of going through an indirect dispatch.
template <typename Kernel>
void launch(ThreadPool& pool, RunStats& stats, std::size_t n_items,
            Kernel&& kernel, LaunchConfig cfg = {}) {
  TraceHook* const hook = stats.trace_hook();
  if (!hook) {
    stats.add_kernel_launches();
    if (n_items != 0) detail::run_grid(pool, n_items, kernel, cfg);
    return;
  }
  // Telemetry: report the counter delta this kernel produced (including its
  // own launch cost). Launches are serial on the host side, so before/after
  // snapshots bracket exactly this kernel's events.
  const StatsSnapshot before = stats.snapshot();
  stats.add_kernel_launches();
  if (n_items != 0) detail::run_grid(pool, n_items, kernel, cfg);
  hook->on_kernel(stats.snapshot() - before, n_items);
}

// A spinlock in device memory (stands in for a CUDA atomicCAS lock). The
// acquire is counted so the cost model can price contention: the paper
// attributes Word Count's poor GPU showing to exactly this ("suffers from
// lock contention when accessing buckets", §VI-B).
class DeviceLock {
 public:
  void lock(RunStats& stats) noexcept {
    stats.add_lock_acquires();
    if (flag_.exchange(1, std::memory_order_acquire) == 0) return;
    stats.add_lock_contended();
    // Test-and-test-and-set with bounded exponential backoff. The raw
    // exchange loop livelock-spins when grid_threads far exceeds the host
    // pool: the holder's OS thread can be descheduled while waiters burn
    // its core. Backoff spins read-only (no cache-line ping-pong) and
    // yields once saturated so the holder gets scheduled.
    std::uint64_t retries = 0;
    std::uint32_t backoff = 1;
    constexpr std::uint32_t kMaxBackoff = 1024;
    for (;;) {
      for (std::uint32_t i = 0; i < backoff; ++i)
        if (flag_.load(std::memory_order_relaxed) == 0) break;
      if (flag_.exchange(1, std::memory_order_acquire) == 0) break;
      ++retries;
      if (backoff < kMaxBackoff)
        backoff <<= 1;
      else
        std::this_thread::yield();
    }
    stats.add_atomic_retries(retries);
  }

  void unlock() noexcept { flag_.store(0, std::memory_order_release); }

  [[nodiscard]] bool try_lock() noexcept {
    return flag_.exchange(1, std::memory_order_acquire) == 0;
  }

 private:
  std::atomic<std::uint32_t> flag_{0};
};

// RAII guard for DeviceLock.
class DeviceLockGuard {
 public:
  DeviceLockGuard(DeviceLock& l, RunStats& stats) : l_(l) { l_.lock(stats); }
  ~DeviceLockGuard() { l_.unlock(); }
  DeviceLockGuard(const DeviceLockGuard&) = delete;
  DeviceLockGuard& operator=(const DeviceLockGuard&) = delete;

 private:
  DeviceLock& l_;
};

// Per-bucket access totals, used by the cost model's lock-serialization
// term (DESIGN.md §5): on a GPU, thousands of concurrent threads hitting
// one hot bucket serialize on its lock (the paper's Word Count §VI-B).
struct BucketLoad {
  std::uint64_t total_accesses = 0;
  std::uint64_t max_bucket_accesses = 0;
};

}  // namespace sepo::gpusim
