#include "baselines/stadium_hash_table.hpp"

#include <cstring>
#include <stdexcept>

#include "common/hashing.hpp"

namespace sepo::baselines {

StadiumHashTable::StadiumHashTable(gpusim::ExecContext& ctx, StadiumConfig cfg)
    : dev_(ctx.device()), stats_(ctx.stats()), cfg_(cfg) {
  if (cfg_.num_buckets == 0 || (cfg_.num_buckets & (cfg_.num_buckets - 1)))
    throw std::invalid_argument("num_buckets must be a power of two");
  bucket_mask_ = cfg_.num_buckets - 1;
  // Device-resident heads + locks footprint.
  dev_.alloc_static(static_cast<std::size_t>(cfg_.num_buckets) * 12);
  index_heads_ = std::vector<std::atomic<gpusim::DevPtr>>(cfg_.num_buckets);
  for (auto& h : index_heads_) h.store(gpusim::kDevNull);
  entry_heads_ = std::vector<std::atomic<HostEntry*>>(cfg_.num_buckets);
  for (auto& h : entry_heads_) h.store(nullptr);
  locks_ = std::vector<gpusim::PaddedBucketLock>(cfg_.num_buckets);
}

void* StadiumHashTable::host_alloc(std::size_t bytes) {
  bytes = (bytes + 7u) & ~std::size_t{7};
  stats_.add_alloc_ops();
  gpusim::DeviceLockGuard guard(host_lock_, stats_);
  if (host_chunks_.empty() ||
      used_in_chunk_ + bytes > cfg_.host_chunk_bytes) {
    host_chunks_.push_back(
        std::make_unique<std::byte[]>(cfg_.host_chunk_bytes));
    used_in_chunk_ = 0;
  }
  void* p = host_chunks_.back().get() + used_in_chunk_;
  used_in_chunk_ += bytes;
  return p;
}

gpusim::DevPtr StadiumHashTable::new_block() {
  // Throws std::bad_alloc when device memory is exhausted — the index, like
  // any non-SEPO device structure, has a hard ceiling.
  const gpusim::DevPtr p = dev_.alloc_static(kBlockBytes, 8);
  auto* b = dev_.ptr<FpBlock>(p);
  b->next = gpusim::kDevNull;
  b->count = 0;
  index_blocks_used_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void StadiumHashTable::insert(std::string_view key,
                              std::span<const std::byte> value) {
  stats_.add_hash_ops();
  const std::uint64_t h = hash_key(key);
  const auto b = static_cast<std::uint32_t>(h) & bucket_mask_;
  const std::uint16_t fp = fingerprint(h);

  // Materialize the entry in pinned CPU memory: this is the single remote
  // access of a Stadium insert.
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const std::size_t sz =
      sizeof(HostEntry) + core::pad8(key_len) + core::pad8(val_len);
  auto* e = static_cast<HostEntry*>(host_alloc(sz));
  e->key_len = key_len;
  e->val_len = val_len;
  std::memcpy(e->key_data(), key.data(), key_len);
  if (val_len) std::memcpy(e->value_data(), value.data(), val_len);
  dev_.bus().remote(sz);

  gpusim::DeviceLockGuard guard(locks_[b].lock, stats_);
  ++locks_[b].accesses;
  // Record the fingerprint in the device-resident index (device-memory
  // work only; no bus traffic).
  gpusim::DevPtr head = index_heads_[b].load(std::memory_order_relaxed);
  FpBlock* blk = head == gpusim::kDevNull ? nullptr : dev_.ptr<FpBlock>(head);
  if (blk == nullptr || blk->count == kTokensPerBlock) {
    const gpusim::DevPtr np = new_block();
    auto* nb = dev_.ptr<FpBlock>(np);
    nb->next = head;
    index_heads_[b].store(np, std::memory_order_release);
    blk = nb;
  }
  blk->fp[blk->count++] = fp;

  // Entry list order must mirror the fingerprint order (newest first).
  e->next = entry_heads_[b].load(std::memory_order_relaxed);
  entry_heads_[b].store(e, std::memory_order_release);
  entry_count_.add(0, 1);
  stats_.add_inserts_new();
}

std::vector<std::span<const std::byte>> StadiumHashTable::lookup_all(
    std::string_view key) {
  stats_.add_hash_ops();
  const std::uint64_t h = hash_key(key);
  const auto b = static_cast<std::uint32_t>(h) & bucket_mask_;
  const std::uint16_t fp = fingerprint(h);

  std::vector<std::span<const std::byte>> out;
  gpusim::DeviceLockGuard guard(locks_[b].lock, stats_);
  ++locks_[b].accesses;

  // Walk the device index and the host chain in lockstep: fingerprints are
  // stored newest-first in blocks, matching the entry list order.
  const HostEntry* e = entry_heads_[b].load(std::memory_order_acquire);
  for (gpusim::DevPtr p = index_heads_[b].load(std::memory_order_acquire);
       p != gpusim::kDevNull;) {
    const auto* blk = dev_.ptr<FpBlock>(p);
    for (int i = blk->count - 1; i >= 0; --i) {
      stats_.add_chain_links();  // device-resident token scan
      if (blk->fp[i] == fp) {
        // Fingerprint hit: confirm against the remote entry.
        dev_.bus().remote(sizeof(HostEntry) + e->key_len);
        stats_.add_key_compare_bytes(
            std::min<std::size_t>(e->key_len, key.size()));
        if (e->key() == key) {
          dev_.bus().remote(e->val_len);
          out.emplace_back(e->value_data(), e->val_len);
        }
      }
      e = e->next;
    }
    p = blk->next;
  }
  return out;
}

void StadiumHashTable::for_each(
    const std::function<void(std::string_view, std::span<const std::byte>)>&
        fn) const {
  for (const auto& head : entry_heads_)
    for (const auto* e = head.load(std::memory_order_acquire); e != nullptr;
         e = e->next)
      fn(e->key(), std::span{e->value_data(), e->val_len});
}

}  // namespace sepo::baselines
