// Host-execution identity and layout constants for the simulator's own hot
// path. The virtual device is multiplexed onto a small host ThreadPool;
// contention-free metering (gpusim::ShardedCounters) and false-sharing
// padding both need to know which pool worker is running and how big a
// cache line is.
#pragma once

#include <cstddef>

namespace sepo::gpusim {

// Destructive-interference granularity of the host. Hardcoded rather than
// std::hardware_destructive_interference_size so struct layouts (and the
// committed BENCH_host.json baselines) do not depend on the build machine.
inline constexpr std::size_t kCacheLineBytes = 64;

// Largest ThreadPool the simulator runs. Every meter keeps one shard per
// possible pool worker, so the bound is fixed at compile time: ThreadPool
// rejects larger explicit sizes and clamps its hardware-concurrency default.
inline constexpr std::size_t kMaxPoolWorkers = 64;

// Shard slot of a thread that is not executing a pool job (host code, raw
// std::threads); pool workers use slots [0, kMaxPoolWorkers).
inline constexpr std::size_t kHostSlot = kMaxPoolWorkers;

namespace detail {
// Set by ThreadPool: once per helper thread at startup, and by a submitting
// thread to 0 for the span of each job it participates in.
inline constinit thread_local std::size_t t_worker_slot = kHostSlot;
}  // namespace detail

// The calling thread's meter slot: its index within the executing
// ThreadPool (0 for the submitting thread, which participates in every job;
// 1..N-1 for the pool's helpers), or kHostSlot outside any pool job.
[[nodiscard]] inline std::size_t current_worker_slot() noexcept {
  return detail::t_worker_slot;
}

// The same index folded into [0, worker_count): threads outside any pool
// job report 0. For per-worker buffers sized to one pool (journal shards)
// that have no separate host slot.
[[nodiscard]] inline std::size_t current_worker_index() noexcept {
  const std::size_t slot = detail::t_worker_slot;
  return slot == kHostSlot ? 0 : slot;
}

}  // namespace sepo::gpusim
