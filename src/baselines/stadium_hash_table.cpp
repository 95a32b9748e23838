#include "baselines/stadium_hash_table.hpp"

#include <algorithm>

#include "common/hashing.hpp"

namespace sepo::baselines {

StadiumHashTable::StadiumHashTable(gpusim::ExecContext& ctx, StadiumConfig cfg)
    : dev_(ctx.device()),
      stats_(ctx.stats()),
      table_(ctx, {.org = core::Organization::kBasic,
                   .num_buckets = cfg.num_buckets}),
      index_heads_(cfg.num_buckets) {
  for (auto& h : index_heads_) h.store(gpusim::kDevNull);
}

void StadiumHashTable::push_fingerprint(std::uint32_t b, std::uint16_t fp) {
  // Device-memory work only; no bus traffic. A full block is fronted by a
  // new one, which throws std::bad_alloc when device memory is exhausted —
  // the index, like any non-SEPO device structure, has a hard ceiling.
  const gpusim::DevPtr head = index_heads_[b].load(std::memory_order_relaxed);
  FpBlock* blk = head == gpusim::kDevNull ? nullptr : dev_.ptr<FpBlock>(head);
  if (blk == nullptr || blk->count == kTokensPerBlock) {
    const gpusim::DevPtr np = dev_.alloc_static(kBlockBytes, 8);
    index_blocks_used_.fetch_add(1, std::memory_order_relaxed);
    blk = dev_.ptr<FpBlock>(np);
    blk->next = head;
    blk->count = 0;
    index_heads_[b].store(np, std::memory_order_release);
  }
  blk->fp[blk->count++] = fp;
}

void StadiumHashTable::insert(std::string_view key,
                              std::span<const std::byte> value) {
  // The entry is materialized in pinned CPU memory (the single remote access
  // of a Stadium insert); its fingerprint goes into the index under the same
  // bucket lock as the chain push, so index order mirrors chain order
  // (newest first).
  (void)table_.insert(/*tid=*/0, key, value,
                      [this](std::uint32_t b, std::uint64_t h) {
                        push_fingerprint(b, fingerprint(h));
                      });
}

std::vector<std::span<const std::byte>> StadiumHashTable::lookup_all(
    std::string_view key) {
  stats_.add_hash_ops();
  const std::uint64_t h = hash_key(key);
  const std::uint32_t b = table_.bucket_of(h);
  const std::uint16_t fp = fingerprint(h);

  std::vector<std::span<const std::byte>> out;
  table_.with_bucket(b, [&] {
    // Walk the device index and the host chain in lockstep: fingerprints
    // are stored newest-first in blocks, matching the chain order.
    using Entry = ChainedHostTable::KvEntry;
    const Entry* e = table_.chain<Entry>(b);
    for (gpusim::DevPtr p = index_heads_[b].load(std::memory_order_acquire);
         p != gpusim::kDevNull;) {
      const auto* blk = dev_.ptr<FpBlock>(p);
      for (int i = blk->count - 1; i >= 0; --i) {
        stats_.add_chain_links();  // device-resident token scan
        if (blk->fp[i] == fp) {
          // Fingerprint hit: confirm against the remote entry.
          dev_.bus().remote(sizeof(Entry) + e->key_len);
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
  });
  return out;
}

}  // namespace sepo::baselines
