// Per-worker counter shards: the one way the simulator meters events.
// RunStats, PcieBus and the baselines' table tallies all count through
// ShardedCounters, on every thread, so no caller has a scope to open or a
// path to forget.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "gpusim/worker_id.hpp"

namespace sepo::gpusim {

// N uint64 counters kept as one cache-line-aligned shard per possible pool
// worker plus one host shard (worker_id.hpp slots).
//
//  * A pool worker bumps its own shard with a relaxed load + store. It is the
//    shard's only writer, so there is no lock-prefixed RMW and no cache line
//    shared with another worker. The fields are relaxed atomics rather than
//    plain integers so a concurrent read stays well-defined (TSan-clean).
//  * A thread outside any pool job bumps the host shard with fetch_add, which
//    is correct from any number of threads.
//  * sum() folds the shards. It is exact at quiescent points: before and after
//    a launch or a run_parties job, and at run end, which is the only place
//    the simulator reads counts. uint64 addition is commutative mod 2^64, so
//    the totals do not depend on which worker counted what.
//
// Single-writer holds while one set of counters is bumped by at most one
// pool at a time; every run owns its pool and its meters.
template <std::size_t N>
class ShardedCounters {
 public:
  void add(std::size_t field, std::uint64_t n) noexcept {
    const std::size_t slot = current_worker_slot();
    std::atomic<std::uint64_t>& c = shards_[slot].v[field];
    if (slot == kHostSlot)
      c.fetch_add(n, std::memory_order_relaxed);
    else
      c.store(c.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
  }

  [[nodiscard]] std::array<std::uint64_t, N> sum() const noexcept {
    std::array<std::uint64_t, N> s{};
    for (const Shard& sh : shards_)
      for (std::size_t f = 0; f < N; ++f)
        s[f] += sh.v[f].load(std::memory_order_relaxed);
    return s;
  }

  [[nodiscard]] std::uint64_t sum(std::size_t field) const noexcept {
    std::uint64_t s = 0;
    for (const Shard& sh : shards_)
      s += sh.v[field].load(std::memory_order_relaxed);
    return s;
  }

  // Host-only, while no pool job bumps these counters.
  void reset() noexcept {
    for (Shard& sh : shards_)
      for (std::atomic<std::uint64_t>& c : sh.v)
        c.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineBytes) Shard {
    std::array<std::atomic<std::uint64_t>, N> v{};
  };
  std::array<Shard, kHostSlot + 1> shards_{};  // pool workers, then host
};

}  // namespace sepo::gpusim
