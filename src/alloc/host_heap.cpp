#include "alloc/host_heap.hpp"

#include <cstring>
#include <stdexcept>

namespace sepo::alloc {

HostHeap::~HostHeap() {
  for (auto& slot : dir_) {
    Chunk* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (std::size_t i = 0; i < kChunkSlots; ++i)
      delete[] chunk[i].load(std::memory_order_relaxed);
    delete[] chunk;
  }
}

HostHeap::Chunk* HostHeap::ensure_chunk(std::uint64_t c) {
  Chunk* chunk = dir_[c].load(std::memory_order_acquire);
  if (chunk != nullptr) return chunk;
  // Value-initialized: every slot pointer starts null, so a reader that
  // races a concurrent store_page sees "not stored yet", never garbage.
  Chunk* fresh = new Chunk[kChunkSlots]();
  if (dir_[c].compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire))
    return fresh;
  delete[] fresh;  // another writer published first; use theirs
  return chunk;
}

void HostHeap::store_page(std::uint64_t slot, const std::byte* src,
                          std::size_t bytes) {
  assert(slot >= 1 && bytes <= page_size_);
  if (slot > kChunkSlots * kMaxChunks)
    throw std::length_error(
        "HostHeap: mirror slot id exceeds directory capacity");
  const std::uint64_t id = slot - 1;
  Chunk* chunk = ensure_chunk(id / kChunkSlots);
  Chunk& cell = chunk[id % kChunkSlots];
  std::byte* block = cell.load(std::memory_order_acquire);
  if (block != nullptr) {
    // Re-store of a recycled page: refresh contents in place. The published
    // pointer never changes, so host addresses handed out earlier stay good.
    std::memcpy(block, src, bytes);
    return;
  }
  // Only the tail past the copied bytes needs zeroing.
  block = new std::byte[page_size_];
  std::memcpy(block, src, bytes);
  std::memset(block + bytes, 0, page_size_ - bytes);
  stored_bytes_.fetch_add(page_size_, std::memory_order_relaxed);
  // Release-publish: a reader that acquire-loads this pointer observes the
  // fully written page contents.
  cell.store(block, std::memory_order_release);
}

}  // namespace sepo::alloc
