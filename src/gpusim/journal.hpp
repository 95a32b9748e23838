// Flight recorder for the virtual GPU (DESIGN.md §5b "Flight recorder").
//
// An EventJournal is a per-worker, cache-line-sharded, fixed-capacity ring
// buffer of typed events. It answers "what was the allocator / fault machinery
// doing right before this run died?" — the question end-of-run aggregate
// counters cannot. The hot path is deliberately shaped like the per-worker
// counter shards (gpusim::ShardedCounters): record() is one plain index bump
// plus a struct store into the calling worker's own cache-line-aligned shard
// — no locks, no atomics on the event path, no allocation. Shards are drained
// only at quiescent points (after a run completes, or from the error path
// once every kernel has unwound), where the same job-completion ordering that
// makes counter snapshots exact makes these plain reads safe.
//
// Timestamps are *simulated* seconds. Worker threads cannot read the Timeline
// directly (its doubles are host-owned), so the host publishes the current
// simulated clock into an atomic after every scheduling step
// (ExecContext::set_journal wires this); record() reads it relaxed. Events
// recorded from inside a kernel therefore carry the simulated time at which
// that kernel *started* — they sort before the kernel's own kKernelFinish,
// which is the order they logically happened in.
//
// Consumers hold a nullable EventJournal*; with none installed every hook is
// one branch, which is what keeps journal-on and journal-off runs
// bit-identical (regression-tested in tests/journal_test.cpp).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/trace_hook.hpp"
#include "gpusim/worker_id.hpp"

namespace sepo::gpusim {

// Everything the flight recorder knows how to witness. Keep
// journal_kind_name() (journal.cpp) and the obs-side parser in sync.
enum class JournalEventKind : std::uint32_t {
  kPageAcquire = 0,     // arg0 = page index, arg1 = free pages after
  kPageRelease = 1,     // arg0 = page index, arg1 = free pages after
  kPageDoubleRelease = 2,  // arg0 = page index (release rejected)
  kPressureBegin = 3,   // arg0 = pages the spike wants seized
  kPressureEnd = 4,     // arg0 = pages that had been seized
  kFaultRetry = 5,      // arg0 = TimelineResource, arg1 = attempt number
  kFaultBackoff = 6,    // arg0 = TimelineResource, arg1 = attempt number
  kFaultExhausted = 7,  // arg0 = TimelineResource, arg1 = max_retries
  kKernelLaunch = 8,    // arg0 = n_items
  kKernelFinish = 9,    // arg0 = n_items, arg1 = work units this kernel
  kFlushBarrier = 10,   // arg0 = pages (0 when unknown), arg1 = bytes flushed
  kIterationBegin = 11, // arg0 = iteration number
  kIterationEnd = 12,   // arg0 = iteration number, arg1 = records postponed
};
inline constexpr int kNumJournalEventKinds = 13;

// Stable lowercase name ("page_acquire", ...) used by the JSONL dump.
[[nodiscard]] const char* journal_kind_name(JournalEventKind k) noexcept;

// One recorded event. `seq` is the recording shard's own event count at the
// time of the store, so (sim_ts, seq, worker) is a deterministic total order
// for the merge — many events share a sim_ts (everything inside one kernel
// does).
struct JournalEvent {
  double sim_ts = 0;         // simulated seconds (Timeline clock)
  std::uint64_t seq = 0;     // per-shard sequence number
  std::uint32_t worker = 0;  // current_worker_index() of the recorder
  JournalEventKind kind = JournalEventKind::kPageAcquire;
  std::uint64_t arg0 = 0, arg1 = 0;
};

// One occupancy snapshot, taken by the SepoDriver at every iteration
// boundary. The sampler is *always on* (samples ride on DriverResult next to
// the iteration profiles) — it only reads state, so it cannot perturb results
// whether or not a journal is installed.
struct OccupancySample {
  double sim_ts = 0;              // timeline total_end() at the boundary
  std::uint32_t iteration = 0;    // 1-based, matches IterationProfile
  std::uint32_t pages_total = 0;  // PagePool size
  std::uint32_t pages_free = 0;   // free right now
  std::uint32_t pages_seized = 0; // held by a fault-injected pressure spike
  // Pages the table held just before this iteration's flush: out of the
  // pool and not seized. The pool only shrinks within a pass, so this is
  // the pass's high-water mark; pages_free is read after the flush.
  std::uint32_t pages_used_peak = 0;
  std::uint64_t resident_entry_bytes = 0;  // live table payload on device
  std::uint32_t staging_slots = 0;  // BigKernel input ring size
  std::uint32_t staging_busy = 0;   // slots still owned by in-flight copies
  double engine_end[kNumTimelineResources] = {};   // per-engine clock
  double engine_busy[kNumTimelineResources] = {};  // per-engine busy total
};

class EventJournal {
 public:
  static constexpr std::size_t kDefaultShardCapacity = 1024;

  // `shards`: one per pool worker (current_worker_index() range). The count
  // can be grown later with ensure_shards() — ExecContext::set_journal does
  // this with its pool's worker count, so callers that only hold a pointer
  // (the CLI) can default-construct without knowing the pool size.
  explicit EventJournal(std::size_t shards = 1,
                        std::size_t capacity_per_shard = kDefaultShardCapacity);

  // Grow to at least `shards` shards. Host-only; must not race record().
  void ensure_shards(std::size_t shards);

  // Hot path: one bump + one store into the calling worker's shard. The ring
  // overwrites its oldest event when full — a flight recorder keeps the
  // newest window, not the oldest.
  void record(JournalEventKind kind, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0) noexcept {
    const std::size_t w = current_worker_index();
    Shard& sh = *shards_[w < shards_.size() ? w : shards_.size() - 1];
    JournalEvent& e = sh.ring[sh.head % sh.ring.size()];
    e.sim_ts = now();
    e.seq = sh.head;
    e.worker = static_cast<std::uint32_t>(w);
    e.kind = kind;
    e.arg0 = arg0;
    e.arg1 = arg1;
    ++sh.head;
  }

  // Host publishes the simulated clock; workers read it relaxed. Bit-cast
  // through uint64 because std::atomic<double> is not lock-free everywhere.
  void set_now(double sim_seconds) noexcept {
    now_bits_.store(std::bit_cast<std::uint64_t>(sim_seconds),
                    std::memory_order_relaxed);
  }
  [[nodiscard]] double now() const noexcept {
    return std::bit_cast<double>(now_bits_.load(std::memory_order_relaxed));
  }

  // Quiescent-point drain: every surviving event from every shard, merged
  // into (sim_ts, seq, worker) order. Does not clear the rings.
  [[nodiscard]] std::vector<JournalEvent> drain() const;

  // Events ever recorded / lost to ring overwrite, across all shards.
  [[nodiscard]] std::uint64_t events_recorded() const noexcept;
  [[nodiscard]] std::uint64_t events_overwritten() const noexcept;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t capacity_per_shard() const noexcept {
    return capacity_;
  }

 private:
  // Plain (non-atomic) head: each shard is written by exactly one worker,
  // and drains happen only when workers are quiescent — the same
  // memory-ordering argument as ShardedCounters. The alignas
  // keeps neighbouring shards' heads off each other's cache lines; unique_ptr
  // keeps shard addresses stable across ensure_shards() growth.
  struct alignas(kCacheLineBytes) Shard {
    explicit Shard(std::size_t cap) : ring(cap) {}
    std::uint64_t head = 0;  // events ever recorded by this shard
    std::vector<JournalEvent> ring;
  };

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> now_bits_{0};
};

}  // namespace sepo::gpusim
