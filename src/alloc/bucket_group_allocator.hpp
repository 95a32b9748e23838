// Bucket-group dynamic memory allocator (paper §IV-A).
//
// "To make the allocator's service scalable, we distribute the allocation
// load onto multiple pages... we partition the hash table buckets into
// bucket groups, each containing n contiguous buckets, and we allocate
// memory for each bucket group from a different page."
//
// Each (group, page-class) pair has an active page; allocations bump within
// it and acquire a fresh page from the pool when it fills. When the pool is
// dry the allocation *fails*, which is the event the hash table converts
// into a POSTPONE response. The allocator tracks which groups have failed
// so the SEPO driver can implement the Basic-organization halt condition
// ("until the requests from 50% of the bucket groups are being postponed",
// §IV-C).
//
// Dry slots (DESIGN.md §5a). Within a pass the pool only shrinks: pages
// return to it only between passes (flush, finalize, pressure relief). So
// once a slot's page acquire fails the slot is marked dry until
// reset_postponed(); its active page cannot change and the page's fill can
// only grow. A lock-free read that says a request does not fit is then
// exact, and alloc() refuses it without the slot lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "alloc/host_heap.hpp"
#include "alloc/page_pool.hpp"
#include "gpusim/launch.hpp"

namespace sepo::alloc {

struct Allocation {
  DevPtr dev = gpusim::kDevNull;
  HostPtr host = kHostNull;
  std::uint32_t page = kInvalidPage;

  [[nodiscard]] bool ok() const noexcept { return dev != gpusim::kDevNull; }
};

class BucketGroupAllocator {
 public:
  // `num_classes` is 1 for the basic/combining organizations and 3 for the
  // multi-valued organization (separate key and value pages, §IV-B): slots
  // are indexed by PageClass value, so a multi-valued table leaves its
  // kGeneric slot unused.
  BucketGroupAllocator(PagePool& pool, HostHeap& host_heap,
                       std::uint32_t num_groups, std::uint32_t num_classes = 1);

  [[nodiscard]] std::uint32_t num_groups() const noexcept { return num_groups_; }

  // Allocates `bytes` (8-byte aligned, must fit in a page) for `group` from
  // a page of class `cls`. On failure returns a null Allocation and marks
  // the group as postponing. A request that refuses() fails without the
  // slot lock; it still counts the slot's lock acquire, as the locked
  // failure does.
  Allocation alloc(std::uint32_t group, PageClass cls, std::uint32_t bytes,
                   gpusim::RunStats& stats) noexcept;

  // True when alloc(group, cls, bytes) is certain to fail: the request can
  // never fit a page, or the slot is dry and the request does not fit the
  // rest of its active page. Takes no lock and writes nothing; within a
  // pass a true answer stays true.
  [[nodiscard]] bool refuses(std::uint32_t group, PageClass cls,
                             std::uint32_t bytes) const noexcept;

  // Number of groups with at least one failed allocation since the last
  // reset_postponed(); a later success does not clear a group's flag. The
  // Basic halt rule reads this.
  [[nodiscard]] std::uint32_t postponed_groups() const noexcept {
    return postponed_groups_.load(std::memory_order_relaxed);
  }

  // Starts a new pass: clears the postponed-group flags and the dry slots.
  // Call between passes, after pages have returned to the pool.
  void reset_postponed() noexcept;

  // Detaches and returns all active page ids (e.g. before a heap flush);
  // groups will acquire fresh pages on the next allocation. Appends to `out`.
  void detach_active_pages(std::vector<std::uint32_t>& out);

  // Detaches only active pages of class `cls` (multi-valued flushes value
  // pages while key pages may stay resident).
  void detach_active_pages(PageClass cls, std::vector<std::uint32_t>& out);

  // Moves pages that filled up and were replaced by fresh ones ("retired")
  // out of the allocator's bookkeeping and appends their ids to `out`.
  // Together with detach_active_pages this yields every page currently
  // owned by the allocator, which is what a heap flush operates on.
  void take_retired_pages(std::vector<std::uint32_t>& out);
  void take_retired_pages(PageClass cls, std::vector<std::uint32_t>& out);

  [[nodiscard]] PagePool& pool() noexcept { return pool_; }
  [[nodiscard]] HostHeap& host_heap() noexcept { return host_heap_; }

  // One (group, page-class) active page and its lock. Every pool worker
  // allocates in every group, so each slot gets its own cache line; eight
  // packed slots would share one, and every lock handoff would invalidate
  // the other seven. Host layout only: no slot is charged to the device.
  // `page` changes only under the lock.
  struct alignas(gpusim::kCacheLineBytes) Slot {
    gpusim::DeviceLock lock;
    std::atomic<std::uint32_t> page{kInvalidPage};
  };

  // The (group, class) slot. Public so a test can hold its lock and show
  // which paths take it.
  [[nodiscard]] Slot& slot(std::uint32_t group, PageClass cls) noexcept {
    return slots_[index(group, cls)];
  }

 private:
  [[nodiscard]] std::size_t index(std::uint32_t group,
                                  PageClass cls) const noexcept {
    return static_cast<std::size_t>(group) * num_classes_ +
           static_cast<std::uint32_t>(cls);
  }

  // True when slot `i` is dry and `bytes` (already rounded) do not fit the
  // rest of its active page.
  [[nodiscard]] bool dry_and_full(std::size_t i,
                                  std::uint32_t bytes) const noexcept;

  // Marks `group` postponing and counts the failed allocation.
  void fail(std::uint32_t group, gpusim::RunStats& stats) noexcept;

  void retire(std::uint32_t page, PageClass cls) noexcept;

  PagePool& pool_;
  HostHeap& host_heap_;
  std::uint32_t num_groups_;
  std::uint32_t num_classes_;
  std::vector<Slot> slots_;
  // One dry flag per slot, indexed like slots_: set (release) under the
  // slot's lock when the pool refuses it a page, cleared by
  // reset_postponed(). Kept apart from the slots, whose lines every
  // allocation writes, so the check every insert makes reads a line that
  // stays shared.
  std::vector<std::atomic<bool>> dry_;
  std::vector<std::atomic<std::uint8_t>> group_postponed_;
  std::atomic<std::uint32_t> postponed_groups_{0};
  gpusim::DeviceLock retired_lock_;
  std::vector<std::uint32_t> retired_[3];  // indexed by PageClass
};

}  // namespace sepo::alloc
