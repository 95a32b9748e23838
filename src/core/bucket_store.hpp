// Bucket/chain storage layer of the SEPO hash table (DESIGN.md §2).
//
// BucketChainStore owns everything *structural*: the bucket array and its
// per-bucket locks, the device page pool, the host mirror heap, the
// bucket-group allocator, chain probing, and the flush machinery (page
// copies metered on the d2h engine). It deliberately knows nothing about
// *when* to flush, postpone, or keep pages resident — those Figure-5
// decisions live in the OrganizationPolicy (organization_policy.hpp);
// SepoHashTable (hash_table.hpp) composes the two under the unchanged
// public API.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "alloc/bucket_group_allocator.hpp"
#include "alloc/host_heap.hpp"
#include "alloc/page_pool.hpp"
#include "core/entry_layout.hpp"
#include "gpusim/device.hpp"
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

class BucketChainStore {
 public:
  struct Bucket {
    std::atomic<DevPtr> head_dev{gpusim::kDevNull};
    HostPtr head_host = alloc::kHostNull;  // guarded by the bucket lock
  };

  BucketChainStore(gpusim::ExecContext& ctx, HashTableConfig cfg);

  BucketChainStore(const BucketChainStore&) = delete;
  BucketChainStore& operator=(const BucketChainStore&) = delete;

  [[nodiscard]] const HashTableConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint32_t num_buckets() const noexcept {
    return cfg_.num_buckets;
  }
  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const noexcept;
  // Memoized-hash overload: callers that already computed hash_key(key)
  // must route through this instead of rehashing.
  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::uint32_t>(hash) & bucket_mask_;
  }
  [[nodiscard]] std::uint32_t group_of(std::uint32_t bucket) const noexcept {
    return bucket / cfg_.buckets_per_group;
  }

  [[nodiscard]] Bucket& bucket(std::uint32_t b) noexcept { return buckets_[b]; }
  [[nodiscard]] const Bucket& bucket(std::uint32_t b) const noexcept {
    return buckets_[b];
  }
  [[nodiscard]] gpusim::PaddedBucketLock& lock(std::uint32_t b) noexcept {
    return bucket_locks_[b];
  }

  // Walks the device chain of bucket `b` for `key`; returns entry dev ptr or
  // null. Caller holds the bucket lock. Charges the walk (links, compared
  // key bytes) to RunStats once, after the walk.
  [[nodiscard]] DevPtr find_in_chain(std::uint32_t b,
                                     std::string_view key) const;
  [[nodiscard]] DevPtr find_key_entry(std::uint32_t b,
                                      std::string_view key) const;

  // Resets every bucket's device head to null. Used after the flushed pages
  // leave the device: the chains then point into freed memory. Host chains
  // are complete and untouched.
  void clear_device_chains();

  // Copies each page's used bytes into the host mirror heap (metered as d2h
  // barrier commands — flushes halt computation, §IV-C) and returns the
  // pages to the pool.
  void flush_pages(const std::vector<std::uint32_t>& pages);

  // Copies the bucket heads' host pointers back (one bulk transfer) for
  // HostTable construction. Call once, after the final flush.
  [[nodiscard]] std::vector<HostPtr> take_host_heads();

  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return gpusim::bucket_load(bucket_locks_);
  }
  [[nodiscard]] HashTableStats table_stats() const noexcept;

  [[nodiscard]] gpusim::ExecContext& ctx() noexcept { return ctx_; }
  [[nodiscard]] gpusim::Device& device() noexcept { return dev_; }
  [[nodiscard]] const gpusim::Device& device() const noexcept { return dev_; }
  [[nodiscard]] gpusim::RunStats& stats() const noexcept { return stats_; }
  [[nodiscard]] alloc::PagePool& pool() noexcept { return *pool_pages_; }
  [[nodiscard]] const alloc::PagePool& pool() const noexcept {
    return *pool_pages_;
  }
  [[nodiscard]] alloc::HostHeap& host_heap() noexcept { return *host_heap_; }
  [[nodiscard]] alloc::BucketGroupAllocator& allocator() noexcept {
    return *allocator_;
  }
  [[nodiscard]] const alloc::BucketGroupAllocator& allocator() const noexcept {
    return *allocator_;
  }

 private:
  gpusim::ExecContext& ctx_;
  gpusim::Device& dev_;
  gpusim::RunStats& stats_;
  HashTableConfig cfg_;
  std::uint32_t bucket_mask_;

  std::unique_ptr<alloc::PagePool> pool_pages_;
  std::unique_ptr<alloc::HostHeap> host_heap_;
  std::unique_ptr<alloc::BucketGroupAllocator> allocator_;

  std::vector<Bucket> buckets_;
  // Lock + access tally per bucket, each on its own cache line
  // (gpusim::PaddedBucketLock) so concurrent inserts to *different* buckets
  // never false-share. Device-memory accounting still charges the compact
  // lock+counter footprint (see the ctor) — the padding is host-only.
  std::vector<gpusim::PaddedBucketLock> bucket_locks_;

  std::uint64_t flushed_bytes_ = 0;
  std::uint64_t flush_pages_ = 0;
};

}  // namespace sepo::core
