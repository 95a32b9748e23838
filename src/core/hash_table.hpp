// The SEPO hash table (paper §IV): closed addressing with separate chaining,
// entries dynamically allocated from the bucket-group allocator, growable
// beyond device memory via the SEPO iteration protocol.
//
// One class (DESIGN.md §2) owns the bucket array and its per-bucket probe
// lines (lock + newest chain slots, DESIGN.md §5a), the device page pool,
// the host mirror heap, the bucket-group allocator and the flush. The three
// bucket organizations (§IV-B) differ only where Figure 5 makes them differ,
// each a branch on cfg.org: the insert rule, the multi-valued chain rebuild
// at iteration start, and the flush rule at iteration end.
//
// Inserts probe first and lock to publish (DESIGN.md §5a): the probe reads
// the line without the lock, and only an insert that may prepend an entry,
// append a value or combine a longer value in place takes the bucket lock.
// One-word combines and inserts the dry heap refuses (POSTPONE) take none;
// the simulated device still takes the lock on every insert, so every path
// counts one acquire.
//
// Device-side operations (insert) are called from kernel code; the iteration
// protocol (begin_iteration / end_iteration / finalize) is called from the
// host between kernel launches, exactly as in Figure 5.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "alloc/bucket_group_allocator.hpp"
#include "alloc/host_heap.hpp"
#include "alloc/page_pool.hpp"
#include "core/entry_layout.hpp"
#include "core/host_table.hpp"
#include "core/probe_line.hpp"
#include "core/sepo.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"

namespace sepo::core {

struct HashTableConfig {
  Organization org = Organization::kCombining;
  std::uint32_t num_buckets = 1u << 14;     // power of two
  // §IV-A trade-off knob. Keep groups x page-classes x page_size well below
  // the heap: every group holds partially-filled active pages, and too many
  // groups strand the heap in fragmentation (more SEPO iterations).
  std::uint32_t buckets_per_group = 512;
  std::size_t page_size = 8u << 10;
  CombineFn combiner = nullptr;             // required for kCombining
  // Heap size: 0 = take all remaining device memory (paper §IV-A).
  std::size_t heap_bytes = 0;
  // Multi-valued livelock valve (see DESIGN.md "resident-key cap"): when
  // key pages kept resident for pending values exceed this fraction of the
  // pool, they are flushed anyway. Retried records then materialize a
  // duplicate key entry in the same bucket; HostTable merges duplicates at
  // read time.
  double max_resident_key_frac = 0.5;
};

struct HashTableStats {
  std::uint64_t resident_entry_bytes = 0;  // bytes currently in device pages
  std::uint64_t flushed_bytes = 0;         // total bytes ever flushed to host
  std::uint64_t flush_pages = 0;           // pages flushed
  std::uint64_t table_bytes = 0;           // flushed + resident (table size)
};

class SepoHashTable {
 public:
  SepoHashTable(gpusim::ExecContext& ctx, HashTableConfig cfg);

  SepoHashTable(const SepoHashTable&) = delete;
  SepoHashTable& operator=(const SepoHashTable&) = delete;

  [[nodiscard]] const HashTableConfig& config() const noexcept { return cfg_; }

  // ------- device-side API (called from kernels) -------

  // Inserts <key, value> according to the configured organization.
  // Returns kPostpone when the required memory could not be allocated;
  // the caller must leave the task unmarked and re-issue it next iteration.
  Status insert(std::string_view key, std::span<const std::byte> value);

  // Convenience for 8-byte values.
  Status insert_u64(std::string_view key, std::uint64_t value) {
    return insert(key, std::as_bytes(std::span{&value, 1}));
  }

  // Device-side lookup over the *resident* chain (current-iteration data).
  // Returns nullptr when the key is not resident. Throws std::logic_error on
  // a multi-valued table, whose chains hold KeyEntry, not KvEntry.
  [[nodiscard]] const KvEntry* find_resident(std::string_view key) const;

  // ------- SEPO iteration protocol (host side, Figure 5) -------

  // Prepares a new iteration: clears postpone flags and pending-key marks,
  // and (multi-valued) rebuilds the device chains from resident key pages.
  void begin_iteration();

  // Basic organization halt condition: true when at least
  // `halt_frac * num_groups` bucket groups are currently postponing.
  [[nodiscard]] bool should_halt(double halt_frac) const noexcept;

  // Ends an iteration: flushes heap pages to the host mirror heap according
  // to the organization's Figure-5 rule and returns them to the pool.
  void end_iteration();

  // Flushes everything still resident and returns the host-side table view.
  // The hash table must not be used for inserts afterwards.
  HostTable finalize();

  // ------- introspection -------

  // Sums the per-worker bucket access rows; call when the table is quiescent.
  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept;

  [[nodiscard]] HashTableStats table_stats() const noexcept;

  // Histogram of *resident* (device-side) chain lengths: result[n] = number
  // of buckets whose device chain currently holds n entries; the last bin
  // aggregates everything >= its index. Walks every bucket — call between
  // kernels, for telemetry.
  [[nodiscard]] std::vector<std::uint64_t> resident_chain_histogram(
      std::size_t max_len = 16) const;

  [[nodiscard]] std::uint32_t free_pages() const noexcept {
    return pool_->free_count();
  }
  // Pages currently seized by an injected memory-pressure spike; 0 without
  // fault injection. Read by the occupancy sampler (SepoDriver).
  [[nodiscard]] std::uint32_t pressure_page_count() const noexcept {
    return static_cast<std::uint32_t>(pressure_pages_.size());
  }
  [[nodiscard]] gpusim::RunStats& run_stats() noexcept { return stats_; }
  [[nodiscard]] alloc::BucketGroupAllocator& allocator() noexcept {
    return *allocator_;
  }
  [[nodiscard]] alloc::PagePool& page_pool() noexcept { return *pool_; }
  [[nodiscard]] const alloc::PagePool& page_pool() const noexcept {
    return *pool_;
  }

 private:
  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::uint32_t>(hash) & (cfg_.num_buckets - 1);
  }

  // Looks `key` up in a line's device chain (core::probe); needs no lock.
  template <typename Entry>
  [[nodiscard]] Probe probe(const ProbeLine& line, std::string_view key,
                            std::uint8_t tag) const;

  void charge(const Probe& p) const noexcept {
    stats_.add_chain_links(p.links);
    stats_.add_key_compare_bytes(p.bytes);
  }

  // Links the filled-in entry at `a` in at the head of bucket `b`'s device
  // and host chains. Caller holds the bucket lock.
  template <typename Entry>
  void prepend(std::uint32_t b, const alloc::Allocation& a,
               std::uint8_t tag);

  // Combines `value` into the entry at `p`. A value held in one 8-byte word
  // is combined on a private copy and stored by a CAS, only if it changed,
  // so this needs no lock; a longer one is combined in place and needs the
  // bucket lock.
  void combine(DevPtr p, std::span<const std::byte> value);

  // Bumps bucket `b`'s access tally in the calling pool worker's row.
  void count_access(std::uint32_t b) noexcept;

  // True when the probe's miss still holds after the allocator refused
  // `bytes` for (g, cls): the heap is dry for this key, and the line's
  // version has not moved since the probe.
  [[nodiscard]] bool refused_miss(const ProbeLine& line, const Probe& miss,
                                  std::uint32_t g, alloc::PageClass cls,
                                  std::uint32_t bytes) const noexcept;

  // Postpones an insert whose allocation the allocator refuses() without
  // taking the bucket lock; counts the acquire the device makes, charges
  // the probe once, and lets the allocator count its refusal.
  Status postpone_unlocked(const Probe& p, std::uint32_t g,
                           alloc::PageClass cls, std::uint32_t bytes);

  // Marks the page of the key entry at `kp` as holding a key that awaits a
  // value, so the Figure-5 flush rule keeps it resident for the retried
  // record. Needs no lock.
  void mark_pending(DevPtr kp) noexcept;

  // Allocates a ValueEntry and links it to the key at `kp`; on failure
  // marks the key pending. Caller holds the bucket lock.
  Status append_value(std::uint32_t g, DevPtr kp,
                      std::span<const std::byte> value);

  // Copies each page's used bytes into the host mirror heap (metered as d2h
  // barrier commands — flushes halt computation, §IV-C) and returns the
  // pages to the pool.
  void flush_pages(const std::vector<std::uint32_t>& pages);

  // Fault injection: seizes / returns heap pages to model a device-memory
  // pressure spike (gpusim::FaultInjector). A shrunken pool makes the
  // allocator POSTPONE sooner — degradation through extra SEPO iterations,
  // never wrong answers.
  void apply_pressure();

  gpusim::ExecContext& ctx_;
  gpusim::Device& dev_;
  gpusim::RunStats& stats_;
  HashTableConfig cfg_;

  std::unique_ptr<alloc::PagePool> pool_;
  std::unique_ptr<alloc::HostHeap> host_heap_;
  std::unique_ptr<alloc::BucketGroupAllocator> allocator_;

  // One probe line per bucket, and each bucket's host chain head (guarded
  // by the line's lock). Device-memory accounting charges the compact
  // bucket (device head, host head, lock word; see the ctor): the line is
  // host-only padding.
  std::vector<ProbeLine> lines_;
  std::vector<HostPtr> head_host_;
  // Bucket access tallies (the serialization term's input), one row of
  // num_buckets per pool worker plus a last row for threads outside the
  // pool, so a combine hit writes no line another worker writes.
  std::size_t worker_rows_ = 0;
  std::vector<std::atomic<std::uint32_t>> accesses_;

  // Multi-valued: key pages kept resident across iterations because some of
  // their keys still await values (paper §IV-C). Empty otherwise.
  std::vector<std::uint32_t> resident_key_pages_;

  // Pages seized by an injected memory-pressure spike (not usable by the
  // allocator until the spike passes).
  std::vector<std::uint32_t> pressure_pages_;

  std::uint64_t flushed_bytes_ = 0;
  std::uint64_t flush_pages_ = 0;
  bool finalized_ = false;
};

}  // namespace sepo::core
