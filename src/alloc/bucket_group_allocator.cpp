#include "alloc/bucket_group_allocator.hpp"

#include <cassert>

namespace sepo::alloc {

BucketGroupAllocator::BucketGroupAllocator(PagePool& pool, HostHeap& host_heap,
                                           std::uint32_t num_groups,
                                           std::uint32_t num_classes)
    : pool_(pool),
      host_heap_(host_heap),
      num_groups_(num_groups),
      num_classes_(num_classes),
      slots_(static_cast<std::size_t>(num_groups) * num_classes),
      dry_(slots_.size()),
      group_postponed_(num_groups) {
  assert(num_groups > 0 && num_classes >= 1 && num_classes <= 3);
  for (auto& f : group_postponed_) f.store(0, std::memory_order_relaxed);
}

namespace {
constexpr std::uint32_t round8(std::uint32_t bytes) noexcept {
  return (bytes + 7u) & ~7u;
}
}  // namespace

bool BucketGroupAllocator::dry_and_full(std::size_t i,
                                        std::uint32_t bytes) const noexcept {
  // The acquire pairs with the release that set the flag, so `page` is the
  // slot's last page; it stays put until reset_postponed(), and its `used`
  // only grows, so a read that does not fit never will.
  if (!dry_[i].load(std::memory_order_acquire)) return false;
  const std::uint32_t page = slots_[i].page.load(std::memory_order_relaxed);
  return page == kInvalidPage ||
         pool_.meta(page).used.load(std::memory_order_relaxed) + bytes >
             pool_.page_size();
}

bool BucketGroupAllocator::refuses(std::uint32_t group, PageClass cls,
                                   std::uint32_t bytes) const noexcept {
  bytes = round8(bytes);
  return bytes == 0 || bytes > pool_.page_size() ||
         dry_and_full(index(group, cls), bytes);
}

Allocation BucketGroupAllocator::alloc(std::uint32_t group, PageClass cls,
                                       std::uint32_t bytes,
                                       gpusim::RunStats& stats) noexcept {
  stats.add_alloc_ops();
  bytes = round8(bytes);
  // A request that can never fit in a page can never be serviced, in this
  // or any later iteration; fail it without burning a page.
  if (bytes == 0 || bytes > pool_.page_size()) {
    fail(group, stats);
    return {};
  }

  const std::size_t i = index(group, cls);
  if (dry_and_full(i, bytes)) {
    // The locked path would fail the same way; the simulated device still
    // takes the lock, so the acquire is counted.
    stats.add_lock_acquires();
    fail(group, stats);
    return {};
  }
  Slot& s = slots_[i];
  gpusim::DeviceLockGuard guard(s.lock, stats);

  const std::uint32_t page = s.page.load(std::memory_order_relaxed);
  const auto page_size = static_cast<std::uint32_t>(pool_.page_size());

  if (page != kInvalidPage) {
    auto& m = pool_.meta(page);
    const std::uint32_t off = m.used.load(std::memory_order_relaxed);
    if (off + bytes <= page_size) {
      m.used.store(off + bytes, std::memory_order_relaxed);
      const std::uint64_t slot_id = m.host_slot.load(std::memory_order_relaxed);
      return {pool_.page_base(page) + off, host_heap_.addr(slot_id, off), page};
    }
  }

  // Active page missing or full: acquire a fresh page from the pool.
  const std::uint32_t fresh = pool_.acquire(stats);
  if (fresh == kInvalidPage) {
    dry_[i].store(true, std::memory_order_release);
    fail(group, stats);
    return {};
  }
  if (page != kInvalidPage) retire(page, cls);
  auto& m = pool_.meta(fresh);
  m.cls = cls;
  m.owner_group = group;
  m.host_slot.store(host_heap_.reserve_slot(), std::memory_order_relaxed);
  m.used.store(bytes, std::memory_order_relaxed);
  s.page.store(fresh, std::memory_order_relaxed);
  const std::uint64_t slot_id = m.host_slot.load(std::memory_order_relaxed);
  return {pool_.page_base(fresh), host_heap_.addr(slot_id, 0), fresh};
}

void BucketGroupAllocator::fail(std::uint32_t group,
                                gpusim::RunStats& stats) noexcept {
  // Most failed allocations hit a group that is already postponing; a plain
  // load keeps the flag's line shared instead of taking it exclusive.
  auto& flag = group_postponed_[group];
  if (flag.load(std::memory_order_relaxed) == 0 &&
      flag.exchange(1, std::memory_order_relaxed) == 0)
    postponed_groups_.fetch_add(1, std::memory_order_relaxed);
  stats.add_alloc_fails();
}

void BucketGroupAllocator::reset_postponed() noexcept {
  for (auto& f : group_postponed_) f.store(0, std::memory_order_relaxed);
  postponed_groups_.store(0, std::memory_order_relaxed);
  for (auto& d : dry_) d.store(false, std::memory_order_relaxed);
}

void BucketGroupAllocator::detach_active_pages(std::vector<std::uint32_t>& out) {
  for (auto& s : slots_) {
    const std::uint32_t page = s.page.exchange(kInvalidPage,
                                               std::memory_order_relaxed);
    if (page != kInvalidPage) out.push_back(page);
  }
}

void BucketGroupAllocator::detach_active_pages(PageClass cls,
                                               std::vector<std::uint32_t>& out) {
  for (std::uint32_t g = 0; g < num_groups_; ++g) {
    const std::uint32_t page =
        slot(g, cls).page.exchange(kInvalidPage, std::memory_order_relaxed);
    if (page != kInvalidPage) out.push_back(page);
  }
}

void BucketGroupAllocator::retire(std::uint32_t page, PageClass cls) noexcept {
  // Rare event (once per page fill); a short critical section is fine.
  while (!retired_lock_.try_lock()) {
  }
  retired_[static_cast<std::uint32_t>(cls)].push_back(page);
  retired_lock_.unlock();
}

void BucketGroupAllocator::take_retired_pages(std::vector<std::uint32_t>& out) {
  while (!retired_lock_.try_lock()) {
  }
  for (auto& list : retired_) {
    out.insert(out.end(), list.begin(), list.end());
    list.clear();
  }
  retired_lock_.unlock();
}

void BucketGroupAllocator::take_retired_pages(PageClass cls,
                                              std::vector<std::uint32_t>& out) {
  while (!retired_lock_.try_lock()) {
  }
  auto& list = retired_[static_cast<std::uint32_t>(cls)];
  out.insert(out.end(), list.begin(), list.end());
  list.clear();
  retired_lock_.unlock();
}

}  // namespace sepo::alloc
