// Event counters recorded during real execution of the simulated device.
// gpusim::CostModel converts a snapshot of these counts into simulated time
// (DESIGN.md §5). Counting events instead of measuring host wall-clock is
// what makes the reproduction independent of the host machine.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "gpusim/sharded_counters.hpp"

namespace sepo::gpusim {

class TraceHook;

// The single source of truth for the counter set. StatsSnapshot fields,
// RunStats fields/adders, snapshot(), reset(), arithmetic, and the JSON
// serializer (obs::to_json) are all generated from this list, so adding a
// counter is one line here and one nowhere else.
//
//   X(field, comment)
#define SEPO_STATS_FIELDS(X)                                                   \
  /* Task-level */                                                             \
  X(records_processed, "tasks that completed successfully")                    \
  X(records_postponed, "task executions that ended in POSTPONE")               \
  X(records_scanned, "task slots visited (incl. done-skips)")                  \
  X(work_units, "app work, in bytes parsed/produced")                          \
  /* Hash-table level */                                                       \
  X(hash_ops, "insert/lookup operations started")                              \
  X(key_compare_bytes, "bytes compared while probing chains")                  \
  X(chain_links_walked, "entries visited while probing")                       \
  X(inserts_new, "new entries materialized")                                   \
  X(combines, "in-place value merges")                                         \
  X(value_appends, "multi-valued appends")                                     \
  /* Allocator level */                                                        \
  X(alloc_ops, "allocation attempts")                                          \
  X(alloc_fails, "POSTPONE-producing failures")                                \
  X(page_acquires, "pages claimed from the pool")                              \
  /* Synchronization level */                                                  \
  X(lock_acquires, "lock acquire/release pairs")                               \
  X(lock_contended, "acquires that found the lock held")                       \
  X(atomic_retries, "CAS retries")                                             \
  /* Control level */                                                          \
  X(divergent_units, "work units executed under warp divergence")              \
  X(kernel_launches, "kernel launches")                                        \
  X(iterations, "SEPO iterations over the input")                              \
  /* Fault-injection level (gpusim::FaultInjector) */                          \
  X(faults_h2d, "injected h2d transfer failures")                              \
  X(faults_d2h, "injected d2h transfer failures")                              \
  X(faults_remote, "injected remote transaction failures")                     \
  X(kernel_aborts, "injected kernel launch aborts")                            \
  X(fault_retries, "priced retry rounds after injected faults")                \
  X(pressure_spikes, "device-memory pressure spikes begun")                    \
  X(page_double_releases, "rejected double releases of a heap page")

// Plain-value snapshot of RunStats, safe to copy and do arithmetic on.
struct StatsSnapshot {
#define SEPO_X(field, comment) std::uint64_t field = 0; /* comment */
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X

  StatsSnapshot& operator+=(const StatsSnapshot& o) {
#define SEPO_X(field, comment) field += o.field;
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    return *this;
  }

  // Saturating per-field difference (deltas between two points in a run;
  // counters are monotone so saturation only guards against misuse). The
  // debug assert makes that misuse — e.g. a shard-fold bug producing an
  // "after" snapshot smaller than "before" — fail loudly in the asan/tsan
  // presets instead of silently clamping to zero.
  StatsSnapshot& operator-=(const StatsSnapshot& o) {
#define SEPO_X(field, comment)                                                 \
  assert(field >= o.field && "StatsSnapshot::operator-= saturated: " #field);  \
  field = field >= o.field ? field - o.field : 0;
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    return *this;
  }

  [[nodiscard]] friend StatsSnapshot operator+(StatsSnapshot a,
                                               const StatsSnapshot& b) {
    return a += b;
  }
  [[nodiscard]] friend StatsSnapshot operator-(StatsSnapshot a,
                                               const StatsSnapshot& b) {
    return a -= b;
  }

  [[nodiscard]] bool operator==(const StatsSnapshot&) const = default;

  // Visits every counter as fn(name, value); the serializers and tests use
  // this so their field list cannot drift from the struct.
  template <typename Fn>
  void for_each_field(Fn&& fn) const {
#define SEPO_X(field, comment) fn(#field, field);
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
  }
};

// Thread-safe accumulating counters, metered through per-worker shards
// (ShardedCounters): a kernel or run_parties body bumps its worker's private
// cache lines, host code bumps the host shard, and snapshot() folds them.
// Counts are read only at quiescent points (between launches and jobs), so
// every snapshot is exact.
class RunStats {
 public:
#define SEPO_X(field, comment)                                                 \
  void add_##field(std::uint64_t n = 1) noexcept {                             \
    counters_.add(k_##field, n);                                               \
  }
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X

  // Historical short name kept for kernel-code brevity.
  void add_chain_links(std::uint64_t n = 1) noexcept {
    add_chain_links_walked(n);
  }

  // Folds the shards. Call from the host between launches; a pool worker
  // reading mid-job would see other workers' counts in flight.
  [[nodiscard]] StatsSnapshot snapshot() const noexcept {
    assert(current_worker_slot() == kHostSlot &&
           "RunStats::snapshot() is read at quiescent points only");
    const auto sums = counters_.sum();
    StatsSnapshot s;
#define SEPO_X(field, comment) s.field = sums[k_##field];
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    return s;
  }

  void reset() noexcept { counters_.reset(); }

  // Optional telemetry hook (obs::TraceRecorder). Install before a run, from
  // the host, while virtual threads are quiescent; null (the default) keeps
  // the hot path a single predictable branch and recording changes no
  // counter, so simulated results are identical with or without it.
  void set_trace_hook(TraceHook* hook) noexcept { trace_hook_ = hook; }
  [[nodiscard]] TraceHook* trace_hook() const noexcept { return trace_hook_; }

 private:
  enum Field : std::size_t {
#define SEPO_X(field, comment) k_##field,
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    kNumFields
  };

  ShardedCounters<kNumFields> counters_;
  TraceHook* trace_hook_ = nullptr;
};

}  // namespace sepo::gpusim
