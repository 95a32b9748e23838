// Page pool over the device heap (paper §IV-A).
//
// The heap is pre-allocated in device memory — sized to whatever is left
// after all static structures — and partitioned into fixed-size pages from
// which allocation requests are serviced. Pages are acquired and released
// through a lock-free Treiber stack of page indices.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/journal.hpp"
#include "gpusim/worker_id.hpp"

namespace sepo::alloc {

using gpusim::DevPtr;

inline constexpr std::uint32_t kInvalidPage = 0xffffffffu;

// Host-visible address of a byte inside the mirror heap. 0 is null.
using HostPtr = std::uint64_t;
inline constexpr HostPtr kHostNull = 0;

enum class PageClass : std::uint8_t {
  kGeneric = 0,  // basic / combining organizations
  kKey = 1,      // multi-valued: key entries
  kValue = 2,    // multi-valued: value entries
};

class PagePool {
 public:
  // Claims `heap_bytes` of device memory (use dev.mem_free() for "all that
  // remains") and partitions it into pages of `page_size` bytes. Throws
  // std::invalid_argument unless page_size is a power of two >= 64 — a
  // mis-sized heap partition must not slip through release builds.
  PagePool(gpusim::Device& dev, std::size_t heap_bytes, std::size_t page_size);

  [[nodiscard]] std::size_t page_size() const noexcept { return page_size_; }
  [[nodiscard]] std::uint32_t page_count() const noexcept {
    return static_cast<std::uint32_t>(pages_.size());
  }
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return page_size_ * pages_.size();
  }

  // Pops a free page; returns kInvalidPage when the pool is dry (the event
  // that makes the hash table POSTPONE inserts).
  std::uint32_t acquire(gpusim::RunStats& stats) noexcept;

  // Returns a page to the pool. A double release (no intervening acquire)
  // would corrupt the free stack and double-count free_count_, so the guard
  // is unconditional: the losing caller's release is rejected (returns
  // false), counted in `stats` when provided.
  bool release(std::uint32_t page, gpusim::RunStats* stats = nullptr) noexcept;

  [[nodiscard]] std::uint32_t free_count() const noexcept {
    return free_count_.load(std::memory_order_relaxed);
  }

  // Installs a flight-recorder journal (non-owning; null disables). Must be
  // wired before the first kernel launches: acquire/release run inside
  // kernels and read the pointer unsynchronized, relying on job publication
  // for the happens-before (same as the counter shards).
  void set_journal(gpusim::EventJournal* journal) noexcept {
    journal_ = journal;
  }

  // Device base address of `page`.
  [[nodiscard]] DevPtr page_base(std::uint32_t page) const noexcept {
    return heap_base_ + static_cast<DevPtr>(page) * page_size_;
  }

  // --- Per-page metadata (host side; a real implementation would keep this
  // in device memory beside the heap, the layout is an implementation
  // detail the paper leaves open). Each page's metadata has its own cache
  // line, so bumps into two active pages never contend; the padding is host
  // layout only and is not charged to the device. ---

  struct alignas(gpusim::kCacheLineBytes) PageMeta {
    std::atomic<std::uint32_t> used{0};        // bump offset within the page
    // Multi-valued §IV-C: nonzero while a key on the page awaits a value;
    // a set-once flag within a pass.
    std::atomic<std::uint32_t> pending_keys{0};
    std::atomic<std::uint64_t> host_slot{0};   // 1-based mirror-heap slot; 0 = none
    PageClass cls = PageClass::kGeneric;
    std::uint32_t owner_group = 0;
    std::atomic<bool> in_pool{true};
  };

  [[nodiscard]] PageMeta& meta(std::uint32_t page) noexcept {
    return pages_[page];
  }
  [[nodiscard]] const PageMeta& meta(std::uint32_t page) const noexcept {
    return pages_[page];
  }

 private:
  std::size_t page_size_;
  DevPtr heap_base_;
  std::vector<PageMeta> pages_;
  std::vector<std::atomic<std::uint32_t>> next_;  // Treiber stack links
  // Head packs {aba_tag:32, page:32} to dodge ABA.
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint32_t> free_count_{0};
  gpusim::EventJournal* journal_ = nullptr;
};

}  // namespace sepo::alloc
