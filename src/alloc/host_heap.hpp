// Host mirror heap: the CPU-memory destination of flushed device pages.
//
// The paper (§III-B) stores *two* pointers per link "where ordinarily one
// would be used: one is based on the location of contents in GPU memory and
// another is based on the eventual location of contents in CPU memory". The
// "eventual location" is made possible by reserving a mirror-heap slot for a
// device page the moment the page is acquired — every byte allocated from
// the page therefore has a known host address long before the page is
// actually copied back.
//
// Concurrency: lock-free per-slot publication. The previous design kept the
// slot table in a std::vector guarded by a global mutex — but only the
// writer took it, so a concurrent reader could observe the vector
// mid-resize. Now the slot table is a fixed two-level
// directory of atomics: chunks are CAS-published, block pointers are
// release-stored exactly once per slot, and readers acquire-load both
// levels. Nothing is ever moved or freed before the heap dies, so a
// published pointer stays valid for the heap's lifetime.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "alloc/page_pool.hpp"

namespace sepo::alloc {

class HostHeap {
 public:
  explicit HostHeap(std::size_t page_size) : page_size_(page_size) {
    for (auto& c : dir_) c.store(nullptr, std::memory_order_relaxed);
  }
  ~HostHeap();
  HostHeap(const HostHeap&) = delete;
  HostHeap& operator=(const HostHeap&) = delete;

  [[nodiscard]] std::size_t page_size() const noexcept { return page_size_; }

  // Reserves the next mirror slot; returns its 1-based slot id. Thread-safe.
  std::uint64_t reserve_slot() noexcept {
    return next_slot_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Host address for offset `off` within slot `slot`.
  [[nodiscard]] HostPtr addr(std::uint64_t slot, std::uint32_t off) const noexcept {
    assert(slot >= 1 && off < page_size_);
    return slot * page_size_ + off;
  }

  // Copies `bytes` bytes of page content into the storage of `slot`,
  // allocating and release-publishing the backing block on first store.
  // A re-store (the device page was recycled and flushed again) reuses the
  // block in place: the published pointer never changes. Thread-safe
  // against readers of *other* slots and concurrent stores of other slots;
  // stores to the same slot are serialized by the flush protocol.
  void store_page(std::uint64_t slot, const std::byte* src, std::size_t bytes);

  // Raw access to the byte at host address `p`. Valid only after the
  // containing slot was stored.
  template <typename T = std::byte>
  [[nodiscard]] const T* ptr(HostPtr p) const noexcept {
    assert(p != kHostNull);
    const std::uint64_t slot = p / page_size_;
    const std::uint64_t off = p % page_size_;
    const std::byte* block = slot_block(slot);
    assert(block != nullptr && "slot read before store_page published it");
    return reinterpret_cast<const T*>(block + off);
  }

  template <typename T = std::byte>
  [[nodiscard]] T* mutable_ptr(HostPtr p) noexcept {
    return const_cast<T*>(ptr<T>(p));
  }

  [[nodiscard]] bool slot_stored(std::uint64_t slot) const noexcept {
    return slot >= 1 && slot_block(slot) != nullptr;
  }

  // Total bytes of host memory holding flushed pages.
  [[nodiscard]] std::size_t stored_bytes() const noexcept {
    return stored_bytes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t reserved_slots() const noexcept {
    return next_slot_.load(std::memory_order_relaxed);
  }

 private:
  // Two-level slot directory: dir_[slot_chunk] -> array of kChunkSlots
  // atomic block pointers. 8Ki chunks x 1Ki slots = 8.4M mirror slots; every
  // stored slot costs a real page of host RAM, so any run near this ceiling
  // would have exhausted memory long before. The directory itself is a 64 KiB
  // inline member — cheap enough for stack- and member-embedded heaps.
  static constexpr std::size_t kChunkSlots = 1024;
  static constexpr std::size_t kMaxChunks = 8 * 1024;
  using Chunk = std::atomic<std::byte*>;

  // Acquire-loads the block pointer for `slot` (null = not stored yet).
  [[nodiscard]] const std::byte* slot_block(std::uint64_t slot) const noexcept {
    const std::uint64_t id = slot - 1;
    const std::uint64_t c = id / kChunkSlots;
    assert(c < kMaxChunks);
    const Chunk* chunk = dir_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    return chunk[id % kChunkSlots].load(std::memory_order_acquire);
  }

  [[nodiscard]] Chunk* ensure_chunk(std::uint64_t c);

  std::size_t page_size_;
  std::atomic<std::uint64_t> next_slot_{0};
  std::atomic<std::size_t> stored_bytes_{0};
  mutable std::atomic<Chunk*> dir_[kMaxChunks];
};

}  // namespace sepo::alloc
