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
      group_postponed_(num_groups) {
  assert(num_groups > 0 && num_classes >= 1 && num_classes <= 3);
  for (auto& f : group_postponed_) f.store(0, std::memory_order_relaxed);
}

Allocation BucketGroupAllocator::alloc(std::uint32_t group, PageClass cls,
                                       std::uint32_t bytes,
                                       gpusim::RunStats& stats) noexcept {
  stats.add_alloc_ops();
  bytes = (bytes + 7u) & ~7u;
  // A request that can never fit in a page can never be serviced, in this
  // or any later iteration; fail it without burning a page.
  if (bytes == 0 || bytes > pool_.page_size()) {
    mark_postponed(group);
    stats.add_alloc_fails();
    return {};
  }

  Slot& s = slot(group, cls);
  gpusim::DeviceLockGuard guard(s.lock, stats);

  std::uint32_t page = s.page;
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
    mark_postponed(group);
    stats.add_alloc_fails();
    return {};
  }
  if (page != kInvalidPage) retire(page, cls);
  auto& m = pool_.meta(fresh);
  m.cls = cls;
  m.owner_group = group;
  m.host_slot.store(host_heap_.reserve_slot(), std::memory_order_relaxed);
  m.used.store(bytes, std::memory_order_relaxed);
  s.page = fresh;
  const std::uint64_t slot_id = m.host_slot.load(std::memory_order_relaxed);
  return {pool_.page_base(fresh), host_heap_.addr(slot_id, 0), fresh};
}

void BucketGroupAllocator::mark_postponed(std::uint32_t group) noexcept {
  // Most failed allocations hit a group that is already postponing; a plain
  // load keeps the flag's line shared instead of taking it exclusive.
  auto& flag = group_postponed_[group];
  if (flag.load(std::memory_order_relaxed) == 0 &&
      flag.exchange(1, std::memory_order_relaxed) == 0)
    postponed_groups_.fetch_add(1, std::memory_order_relaxed);
}

void BucketGroupAllocator::reset_postponed() noexcept {
  for (auto& f : group_postponed_) f.store(0, std::memory_order_relaxed);
  postponed_groups_.store(0, std::memory_order_relaxed);
}

void BucketGroupAllocator::detach_active_pages(std::vector<std::uint32_t>& out) {
  for (auto& s : slots_) {
    if (s.page != kInvalidPage) {
      out.push_back(s.page);
      s.page = kInvalidPage;
    }
  }
}

void BucketGroupAllocator::detach_active_pages(PageClass cls,
                                               std::vector<std::uint32_t>& out) {
  for (std::uint32_t g = 0; g < num_groups_; ++g) {
    Slot& s = slot(g, cls);
    if (s.page != kInvalidPage) {
      out.push_back(s.page);
      s.page = kInvalidPage;
    }
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
