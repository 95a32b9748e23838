// The SEPO hash table (paper §IV): closed addressing with separate chaining,
// entries dynamically allocated from the bucket-group allocator, growable
// beyond device memory via the SEPO iteration protocol.
//
// One class (DESIGN.md §2) owns the bucket array and its per-bucket locks,
// the device page pool, the host mirror heap, the bucket-group allocator and
// the flush. The three bucket organizations (§IV-B) differ only where
// Figure 5 makes them differ, each a branch on cfg.org: the insert rule, the
// multi-valued chain rebuild at iteration start, and the flush rule at
// iteration end.
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

  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return gpusim::bucket_load(bucket_locks_);
  }

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
  struct Bucket {
    std::atomic<DevPtr> head_dev{gpusim::kDevNull};
    HostPtr head_host = alloc::kHostNull;  // guarded by the bucket lock
  };

  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const noexcept;

  // Walks the device chain of bucket `b` for `key`; returns the entry's dev
  // ptr or null. Caller holds the bucket lock. Charges the walk (links,
  // compared key bytes) to RunStats once, after the walk.
  template <typename Entry>
  [[nodiscard]] DevPtr find(std::uint32_t b, std::string_view key) const;

  // Links the filled-in entry at `a` in at the head of bucket `b`'s device
  // and host chains. Caller holds the bucket lock.
  template <typename Entry>
  void prepend(std::uint32_t b, const alloc::Allocation& a);

  // Allocates a ValueEntry and links it to the key at `kp`. On failure the
  // key's page is marked pending so the Figure-5 flush rule keeps it
  // resident for the retried record.
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

  std::vector<Bucket> buckets_;
  // Lock + access tally per bucket, each on its own cache line
  // (gpusim::PaddedBucketLock) so concurrent inserts to *different* buckets
  // never false-share. Device-memory accounting still charges the compact
  // lock+counter footprint (see the ctor) — the padding is host-only.
  std::vector<gpusim::PaddedBucketLock> bucket_locks_;

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
