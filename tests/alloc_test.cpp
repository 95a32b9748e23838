// Unit + property tests for the allocator stack: PagePool (Treiber stack),
// HostHeap (mirror slots), BucketGroupAllocator (per-group bump + postpone
// flags). Covers DESIGN.md invariant 4 (allocator safety).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alloc/bucket_group_allocator.hpp"
#include "common/random.hpp"
#include "alloc/host_heap.hpp"
#include "alloc/page_pool.hpp"
#include "gpusim/thread_pool.hpp"
#include "test_util.hpp"

namespace sepo::alloc {
namespace {

using test::Rig;

// ---- PagePool ----

TEST(PagePoolTest, PartitionsHeapIntoPages) {
  Rig rig(1u << 20);
  PagePool pool(rig.dev, 64u << 10, 4u << 10);
  EXPECT_EQ(pool.page_count(), 16u);
  EXPECT_EQ(pool.free_count(), 16u);
  EXPECT_EQ(pool.page_size(), 4u << 10);
}

TEST(PagePoolTest, AcquireHandsOutDistinctPages) {
  Rig rig(1u << 20);
  PagePool pool(rig.dev, 64u << 10, 4u << 10);
  std::set<std::uint32_t> pages;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t p = pool.acquire(rig.stats);
    ASSERT_NE(p, kInvalidPage);
    EXPECT_TRUE(pages.insert(p).second) << "page handed out twice";
  }
  EXPECT_EQ(pool.acquire(rig.stats), kInvalidPage);  // dry
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(PagePoolTest, ReleaseMakesPageReusable) {
  Rig rig(1u << 20);
  PagePool pool(rig.dev, 16u << 10, 4u << 10);
  std::vector<std::uint32_t> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(pool.acquire(rig.stats));
  ASSERT_EQ(pool.acquire(rig.stats), kInvalidPage);
  pool.release(pages[2]);
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.acquire(rig.stats), pages[2]);
}

TEST(PagePoolTest, PageBasesAreDisjointAndInHeap) {
  Rig rig(1u << 20);
  PagePool pool(rig.dev, 32u << 10, 4u << 10);
  for (std::uint32_t p = 0; p + 1 < pool.page_count(); ++p)
    EXPECT_EQ(pool.page_base(p + 1) - pool.page_base(p), 4u << 10);
}

TEST(PagePoolTest, AcquireResetsMeta) {
  Rig rig(1u << 20);
  PagePool pool(rig.dev, 16u << 10, 4u << 10);
  const std::uint32_t p = pool.acquire(rig.stats);
  pool.meta(p).used.store(1234, std::memory_order_relaxed);
  pool.meta(p).pending_keys.store(5, std::memory_order_relaxed);
  pool.release(p);
  const std::uint32_t q = pool.acquire(rig.stats);
  ASSERT_EQ(p, q);
  EXPECT_EQ(pool.meta(q).used.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(pool.meta(q).pending_keys.load(std::memory_order_relaxed), 0u);
}

TEST(PagePoolTest, RejectsInvalidPageSize) {
  Rig rig(1u << 20);
  // Must be a power of two >= 64; a bad partition has to fail loudly in
  // release builds too, not only under NDEBUG-off asserts.
  EXPECT_THROW(PagePool(rig.dev, 64u << 10, 48), std::invalid_argument);
  EXPECT_THROW(PagePool(rig.dev, 64u << 10, 3000), std::invalid_argument);
  EXPECT_THROW(PagePool(rig.dev, 64u << 10, 0), std::invalid_argument);
  EXPECT_NO_THROW(PagePool(rig.dev, 64u << 10, 64));
}

TEST(PagePoolTest, DoubleReleaseIsRejectedAndCounted) {
  Rig rig(1u << 20);
  PagePool pool(rig.dev, 16u << 10, 4u << 10);
  const std::uint32_t p = pool.acquire(rig.stats);
  ASSERT_NE(p, kInvalidPage);
  EXPECT_TRUE(pool.release(p, &rig.stats));
  // The second release has no intervening acquire: it must be rejected
  // (not corrupt the free stack) and show up in the stats.
  EXPECT_FALSE(pool.release(p, &rig.stats));
  EXPECT_EQ(pool.free_count(), 4u);
  EXPECT_EQ(rig.stats.snapshot().page_double_releases, 1u);
  // The pool still works: every page remains acquirable exactly once.
  std::set<std::uint32_t> pages;
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t q = pool.acquire(rig.stats);
    ASSERT_NE(q, kInvalidPage);
    EXPECT_TRUE(pages.insert(q).second) << "page handed out twice";
  }
  EXPECT_EQ(pool.acquire(rig.stats), kInvalidPage);
}

TEST(PagePoolTest, ConcurrentAcquireReleaseKeepsInvariant) {
  Rig rig(4u << 20, /*workers=*/4);
  PagePool pool(rig.dev, 256u << 10, 4u << 10);  // 64 pages
  std::atomic<bool> violation{false};
  rig.pool.parallel_for(4000, [&](std::size_t) {
    const std::uint32_t p = pool.acquire(rig.stats);
    if (p == kInvalidPage) return;
    // Ownership check: in_pool must be false while we hold the page.
    if (pool.meta(p).in_pool.load(std::memory_order_relaxed))
      violation.store(true);
    pool.release(p);
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(pool.free_count(), 64u);
}

// Sustained concurrent churn near pool exhaustion: many threads acquire and
// release in tight loops against a pool smaller than the demand, so the
// Treiber stack's push/pop race with the double-release CAS guard under
// contention. Runs under the sanitizer label (see tests/CMakeLists.txt).
TEST(PagePoolChurnTest, ManyThreadsNearExhaustion) {
  Rig rig(4u << 20);
  PagePool pool(rig.dev, 32u << 10, 4u << 10);  // 8 pages
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<bool> violation{false};
  std::atomic<std::uint64_t> acquired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      std::vector<std::uint32_t> held;
      for (int i = 0; i < kIters; ++i) {
        const std::uint32_t p = pool.acquire(rig.stats);
        if (p != kInvalidPage) {
          if (pool.meta(p).in_pool.load(std::memory_order_relaxed))
            violation.store(true);
          held.push_back(p);
          acquired.fetch_add(1, std::memory_order_relaxed);
        }
        // Hold up to two pages to keep the pool starved, then give back.
        if (held.size() > 2 || (p == kInvalidPage && !held.empty())) {
          if (!pool.release(held.back(), &rig.stats)) violation.store(true);
          held.pop_back();
        }
      }
      for (const std::uint32_t p : held)
        if (!pool.release(p, &rig.stats)) violation.store(true);
    });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(acquired.load(), 0u);
  EXPECT_EQ(pool.free_count(), 8u);
  // No legitimate release may ever be rejected: every acquire had exactly
  // one matching release.
  EXPECT_EQ(rig.stats.snapshot().page_double_releases, 0u);
}

// ---- HostHeap ----

TEST(HostHeapTest, SlotsAreSequentialAndOneBased) {
  HostHeap heap(4096);
  EXPECT_EQ(heap.reserve_slot(), 1u);
  EXPECT_EQ(heap.reserve_slot(), 2u);
  EXPECT_EQ(heap.reserved_slots(), 2u);
}

TEST(HostHeapTest, AddressArithmeticRoundTrips) {
  HostHeap heap(4096);
  const std::uint64_t slot = heap.reserve_slot();
  const HostPtr p = heap.addr(slot, 128);
  EXPECT_EQ(p, slot * 4096 + 128);
  EXPECT_NE(p, kHostNull);
}

TEST(HostHeapTest, StoreThenReadBack) {
  HostHeap heap(256);
  const std::uint64_t slot = heap.reserve_slot();
  std::byte page[256];
  for (int i = 0; i < 256; ++i) page[i] = static_cast<std::byte>(i);
  heap.store_page(slot, page, 256);
  EXPECT_TRUE(heap.slot_stored(slot));
  EXPECT_EQ(*heap.ptr<std::uint8_t>(heap.addr(slot, 7)), 7u);
  EXPECT_EQ(heap.stored_bytes(), 256u);
}

TEST(HostHeapTest, SlotsStoredOutOfOrder) {
  HostHeap heap(64);
  const auto s1 = heap.reserve_slot();
  const auto s2 = heap.reserve_slot();
  std::byte page[64] = {};
  page[0] = std::byte{2};
  heap.store_page(s2, page, 64);
  EXPECT_TRUE(heap.slot_stored(s2));
  EXPECT_FALSE(heap.slot_stored(s1));
  page[0] = std::byte{1};
  heap.store_page(s1, page, 64);
  EXPECT_EQ(*heap.ptr<std::uint8_t>(heap.addr(s1, 0)), 1u);
  EXPECT_EQ(*heap.ptr<std::uint8_t>(heap.addr(s2, 0)), 2u);
}

// ---- HostHeap lock-free publication ----

// Writers store disjoint slots while readers spin on slot_stored and then
// read the published contents: the release/acquire pair must make every
// published page fully visible. Run under TSan via the sanitize label.
TEST(HostHeapConcurrencyTest, ConcurrentStoreAndReadAreRaceFree) {
  constexpr std::size_t kPage = 256;
  constexpr int kWriters = 4;
  constexpr int kSlotsPerWriter = 200;
  alloc::HostHeap heap(kPage);
  std::vector<std::uint64_t> slots(kWriters * kSlotsPerWriter);
  for (auto& s : slots) s = heap.reserve_slot();

  std::atomic<bool> fail{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters * 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::byte page[kPage];
      for (int i = 0; i < kSlotsPerWriter; ++i) {
        const std::uint64_t slot = slots[w * kSlotsPerWriter + i];
        std::fill(page, page + kPage, static_cast<std::byte>(slot & 0xff));
        heap.store_page(slot, page, kPage);
      }
    });
    threads.emplace_back([&, w] {
      for (int i = kSlotsPerWriter - 1; i >= 0; --i) {
        const std::uint64_t slot = slots[w * kSlotsPerWriter + i];
        while (!heap.slot_stored(slot)) std::this_thread::yield();
        const auto* p = heap.ptr<std::uint8_t>(heap.addr(slot, 0));
        const auto* q = heap.ptr<std::uint8_t>(heap.addr(slot, kPage - 1));
        if (*p != (slot & 0xff) || *q != (slot & 0xff)) fail = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(fail.load());
  EXPECT_EQ(heap.stored_bytes(), slots.size() * kPage);
  EXPECT_EQ(heap.reserved_slots(), slots.size());
}

TEST(HostHeapTest, RestoreKeepsPublishedPointerStable) {
  alloc::HostHeap heap(64);
  const std::uint64_t slot = heap.reserve_slot();
  std::byte page[64] = {};
  page[0] = std::byte{1};
  heap.store_page(slot, page, 64);
  const auto* before = heap.ptr<>(heap.addr(slot, 0));
  page[0] = std::byte{2};
  heap.store_page(slot, page, 64);  // recycled page, flushed again
  EXPECT_EQ(heap.ptr<>(heap.addr(slot, 0)), before);
  EXPECT_EQ(*heap.ptr<std::uint8_t>(heap.addr(slot, 0)), 2u);
  EXPECT_EQ(heap.stored_bytes(), 64u);  // counted once, not per store
}

// ---- BucketGroupAllocator ----

struct AllocRig {
  AllocRig(std::size_t heap_kb, std::size_t page_kb, std::uint32_t groups,
           std::uint32_t classes = 1)
      : rig(4u << 20),
        pool(rig.dev, heap_kb << 10, page_kb << 10),
        heap(page_kb << 10),
        alloc(pool, heap, groups, classes) {}

  Rig rig;
  PagePool pool;
  HostHeap heap;
  BucketGroupAllocator alloc;
};

TEST(BucketGroupAllocatorTest, AllocationsWithinGroupAreContiguous) {
  AllocRig r(64, 4, 4);
  const Allocation a = r.alloc.alloc(0, PageClass::kGeneric, 100, r.rig.stats);
  const Allocation b = r.alloc.alloc(0, PageClass::kGeneric, 100, r.rig.stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.page, b.page);
  EXPECT_EQ(b.dev - a.dev, 104u);  // 100 rounded to 8
  EXPECT_EQ(b.host - a.host, 104u);
}

TEST(BucketGroupAllocatorTest, DifferentGroupsUseDifferentPages) {
  AllocRig r(64, 4, 4);
  const Allocation a = r.alloc.alloc(0, PageClass::kGeneric, 64, r.rig.stats);
  const Allocation b = r.alloc.alloc(1, PageClass::kGeneric, 64, r.rig.stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.page, b.page);
}

TEST(BucketGroupAllocatorTest, ClassesUseSeparatePages) {
  AllocRig r(64, 4, 2, /*classes=*/3);
  const Allocation k = r.alloc.alloc(0, PageClass::kKey, 64, r.rig.stats);
  const Allocation v = r.alloc.alloc(0, PageClass::kValue, 64, r.rig.stats);
  ASSERT_TRUE(k.ok() && v.ok());
  EXPECT_NE(k.page, v.page);
  EXPECT_EQ(r.pool.meta(k.page).cls, PageClass::kKey);
  EXPECT_EQ(r.pool.meta(v.page).cls, PageClass::kValue);
}

TEST(BucketGroupAllocatorTest, FullPageRetiresAndFreshPageTaken) {
  AllocRig r(64, 4, 1);
  const Allocation a =
      r.alloc.alloc(0, PageClass::kGeneric, 3000, r.rig.stats);
  const Allocation b =
      r.alloc.alloc(0, PageClass::kGeneric, 3000, r.rig.stats);  // won't fit
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.page, b.page);
  std::vector<std::uint32_t> retired;
  r.alloc.take_retired_pages(retired);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], a.page);
}

TEST(BucketGroupAllocatorTest, FailureMarksGroupPostponed) {
  AllocRig r(8, 4, 2);  // 2 pages total
  ASSERT_TRUE(r.alloc.alloc(0, PageClass::kGeneric, 4000, r.rig.stats).ok());
  ASSERT_TRUE(r.alloc.alloc(1, PageClass::kGeneric, 4000, r.rig.stats).ok());
  EXPECT_EQ(r.alloc.postponed_groups(), 0u);
  EXPECT_FALSE(r.alloc.alloc(0, PageClass::kGeneric, 4000, r.rig.stats).ok());
  EXPECT_EQ(r.alloc.postponed_groups(), 1u);
  // Same group failing again does not double-count.
  EXPECT_FALSE(r.alloc.alloc(0, PageClass::kGeneric, 4000, r.rig.stats).ok());
  EXPECT_EQ(r.alloc.postponed_groups(), 1u);
  EXPECT_FALSE(r.alloc.alloc(1, PageClass::kGeneric, 4000, r.rig.stats).ok());
  EXPECT_EQ(r.alloc.postponed_groups(), 2u);
  r.alloc.reset_postponed();
  EXPECT_EQ(r.alloc.postponed_groups(), 0u);
}

TEST(BucketGroupAllocatorTest, OversizedRequestFailsCleanly) {
  AllocRig r(64, 4, 1);
  EXPECT_FALSE(
      r.alloc.alloc(0, PageClass::kGeneric, (4u << 10) + 8, r.rig.stats).ok());
  EXPECT_EQ(r.rig.stats.snapshot().alloc_fails, 1u);
  // The pool was not touched.
  EXPECT_EQ(r.pool.free_count(), 16u);
}

TEST(BucketGroupAllocatorTest, DetachReturnsActivePages) {
  AllocRig r(64, 4, 3);
  (void)r.alloc.alloc(0, PageClass::kGeneric, 64, r.rig.stats);
  (void)r.alloc.alloc(2, PageClass::kGeneric, 64, r.rig.stats);
  std::vector<std::uint32_t> active;
  r.alloc.detach_active_pages(active);
  EXPECT_EQ(active.size(), 2u);
  // After detaching, new allocations get fresh pages.
  const Allocation again =
      r.alloc.alloc(0, PageClass::kGeneric, 64, r.rig.stats);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::count(active.begin(), active.end(), again.page), 0);
}

// ---- Dry slots (DESIGN.md §5a) ----

// A 2-page heap shared by two groups: group 0 fills 3000 of its 4096-byte
// page, group 1 takes the other page, and group 0's next 3000-byte request
// finds the pool empty, which makes its slot dry.
struct DryRig : AllocRig {
  DryRig() : AllocRig(8, 4, 2) {
    EXPECT_TRUE(alloc.alloc(0, PageClass::kGeneric, 3000, rig.stats).ok());
    EXPECT_TRUE(alloc.alloc(1, PageClass::kGeneric, 3000, rig.stats).ok());
    EXPECT_FALSE(alloc.refuses(0, PageClass::kGeneric, 3000));
    EXPECT_FALSE(alloc.alloc(0, PageClass::kGeneric, 3000, rig.stats).ok());
    EXPECT_TRUE(alloc.refuses(0, PageClass::kGeneric, 3000));
  }
};

TEST(DrySlotTest, ServesTheTailAndRefusesWhatDoesNotFit) {
  DryRig r;
  // 1096 bytes are left on group 0's page.
  EXPECT_FALSE(r.alloc.refuses(0, PageClass::kGeneric, 1096));
  EXPECT_TRUE(r.alloc.refuses(0, PageClass::kGeneric, 1097));
  EXPECT_TRUE(r.alloc.alloc(0, PageClass::kGeneric, 1000, r.rig.stats).ok());
  // 96 left: a 96-byte request fits, a 97-byte one (104 rounded) does not.
  EXPECT_TRUE(r.alloc.refuses(0, PageClass::kGeneric, 97));
  EXPECT_FALSE(r.alloc.alloc(0, PageClass::kGeneric, 97, r.rig.stats).ok());
  EXPECT_TRUE(r.alloc.alloc(0, PageClass::kGeneric, 96, r.rig.stats).ok());
  EXPECT_TRUE(r.alloc.refuses(0, PageClass::kGeneric, 8));
  // Group 1's slot never failed: it is not dry, and it asks the pool.
  EXPECT_FALSE(r.alloc.refuses(1, PageClass::kGeneric, 3000));
}

TEST(DrySlotTest, RefusalCountsWhatTheLockedFailureCounts) {
  AllocRig r(8, 4, 2);
  ASSERT_TRUE(r.alloc.alloc(0, PageClass::kGeneric, 3000, r.rig.stats).ok());
  ASSERT_TRUE(r.alloc.alloc(1, PageClass::kGeneric, 3000, r.rig.stats).ok());
  gpusim::StatsSnapshot before = r.rig.stats.snapshot();
  ASSERT_FALSE(r.alloc.alloc(0, PageClass::kGeneric, 3000, r.rig.stats).ok());
  const gpusim::StatsSnapshot locked = r.rig.stats.snapshot() - before;
  EXPECT_EQ(r.alloc.postponed_groups(), 1u);
  before = r.rig.stats.snapshot();
  ASSERT_TRUE(r.alloc.refuses(0, PageClass::kGeneric, 3000));
  ASSERT_FALSE(r.alloc.alloc(0, PageClass::kGeneric, 3000, r.rig.stats).ok());
  const gpusim::StatsSnapshot dry = r.rig.stats.snapshot() - before;
  EXPECT_EQ(locked.alloc_ops, 1u);
  EXPECT_EQ(locked.alloc_fails, 1u);
  EXPECT_EQ(locked.lock_acquires, 1u);
  EXPECT_EQ(locked.page_acquires, 0u);
  EXPECT_EQ(dry.alloc_ops, locked.alloc_ops);
  EXPECT_EQ(dry.alloc_fails, locked.alloc_fails);
  EXPECT_EQ(dry.lock_acquires, locked.lock_acquires);
  EXPECT_EQ(dry.page_acquires, locked.page_acquires);
  // The group stays postponed, counted once, until the next pass.
  EXPECT_EQ(r.alloc.postponed_groups(), 1u);
  // A request no page can hold fails before the slot, as before: no lock.
  before = r.rig.stats.snapshot();
  EXPECT_TRUE(r.alloc.refuses(1, PageClass::kGeneric, 5000));
  EXPECT_FALSE(r.alloc.alloc(1, PageClass::kGeneric, 5000, r.rig.stats).ok());
  const gpusim::StatsSnapshot oversized = r.rig.stats.snapshot() - before;
  EXPECT_EQ(oversized.alloc_fails, 1u);
  EXPECT_EQ(oversized.lock_acquires, 0u);
  EXPECT_EQ(r.alloc.postponed_groups(), 2u);
}

TEST(DrySlotTest, AllocatesAgainAfterTheFlushAndANewPass) {
  DryRig r;
  // The flush: every owned page returns to the pool between passes.
  std::vector<std::uint32_t> pages;
  r.alloc.detach_active_pages(pages);
  r.alloc.take_retired_pages(pages);
  for (const std::uint32_t p : pages) ASSERT_TRUE(r.pool.release(p));
  r.alloc.reset_postponed();
  EXPECT_FALSE(r.alloc.refuses(0, PageClass::kGeneric, 3000));
  EXPECT_TRUE(r.alloc.alloc(0, PageClass::kGeneric, 3000, r.rig.stats).ok());
  EXPECT_EQ(r.alloc.postponed_groups(), 0u);
}

TEST(DrySlotTest, RefusalTakesNoSlotLock) {
  DryRig r;
  BucketGroupAllocator::Slot& s = r.alloc.slot(0, PageClass::kGeneric);
  gpusim::RunStats holder_stats;
  s.lock.lock(holder_stats);  // another thread's allocation in progress
  std::atomic<bool> refused{false};
  std::thread t([&] {
    gpusim::RunStats stats;
    if (!r.alloc.alloc(0, PageClass::kGeneric, 3000, stats).ok())
      refused.store(true);
  });
  // A refusal that waited for the lock would still be spinning when the
  // deadline passes; release the lock then so the test cannot hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!refused.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_TRUE(refused.load());
  s.lock.unlock();
  t.join();
}

// Property: no two allocations overlap, across groups, classes, and page
// recycling (guard-pattern check).
TEST(BucketGroupAllocatorProperty, AllocationsNeverOverlap) {
  AllocRig r(128, 4, 8, /*classes=*/3);
  Rng rng(3);
  struct Span {
    gpusim::DevPtr dev;
    std::uint32_t len;
  };
  std::vector<Span> live;
  for (int i = 0; i < 2000; ++i) {
    const auto group = static_cast<std::uint32_t>(rng.below(8));
    const auto cls = static_cast<PageClass>(rng.below(3));
    const auto len = static_cast<std::uint32_t>(8 + rng.below(300));
    const Allocation a = r.alloc.alloc(group, cls, len, r.rig.stats);
    if (!a.ok()) break;
    live.push_back({a.dev, (len + 7u) & ~7u});
  }
  ASSERT_GT(live.size(), 100u);
  std::sort(live.begin(), live.end(),
            [](const Span& a, const Span& b) { return a.dev < b.dev; });
  for (std::size_t i = 1; i < live.size(); ++i)
    ASSERT_GE(live[i].dev, live[i - 1].dev + live[i - 1].len)
        << "overlap at allocation " << i;
}

// Property: writes through dev pointers land at the matching host addresses
// after the page content is copied (dual-pointer consistency, invariant 5).
TEST(BucketGroupAllocatorProperty, HostMirrorsDeviceContent) {
  AllocRig r(64, 4, 2);
  std::vector<Allocation> allocs;
  for (int i = 0; i < 50; ++i) {
    const Allocation a = r.alloc.alloc(i % 2, PageClass::kGeneric, 40,
                                       r.rig.stats);
    ASSERT_TRUE(a.ok());
    std::memset(r.rig.dev.ptr(a.dev), i, 40);
    allocs.push_back(a);
  }
  // Flush every owned page into the host heap.
  std::vector<std::uint32_t> pages;
  r.alloc.detach_active_pages(pages);
  r.alloc.take_retired_pages(pages);
  for (const std::uint32_t p : pages) {
    const auto& m = r.pool.meta(p);
    r.heap.store_page(m.host_slot.load(std::memory_order_relaxed),
                      r.rig.dev.ptr(r.pool.page_base(p)),
                      m.used.load(std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    const auto* host = r.heap.ptr<std::uint8_t>(allocs[i].host);
    EXPECT_EQ(*host, static_cast<std::uint8_t>(i)) << i;
  }
}

}  // namespace
}  // namespace sepo::alloc
