#include "core/bucket_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hashing.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::core {

namespace {
constexpr bool is_pow2(std::uint64_t v) { return v && (v & (v - 1)) == 0; }
}  // namespace

BucketChainStore::BucketChainStore(gpusim::ExecContext& ctx,
                                   HashTableConfig cfg)
    : ctx_(ctx), dev_(ctx.device()), stats_(ctx.stats()), cfg_(cfg) {
  if (!is_pow2(cfg_.num_buckets))
    throw std::invalid_argument("num_buckets must be a power of two");
  if (cfg_.buckets_per_group == 0 || cfg_.buckets_per_group > cfg_.num_buckets)
    throw std::invalid_argument("invalid buckets_per_group");
  if (cfg_.org == Organization::kCombining && cfg_.combiner == nullptr)
    throw std::invalid_argument("combining organization requires a combiner");
  bucket_mask_ = cfg_.num_buckets - 1;

  // The bucket array and its locks live in device memory: reserve their
  // footprint there so the heap gets only what genuinely remains (§IV-A).
  // Charged at the compact device layout (bucket + 4-byte lock word), NOT at
  // sizeof(PaddedBucketLock): the cache-line padding is a host-side
  // anti-false-sharing measure and must not shrink the simulated heap.
  const std::size_t bucket_bytes =
      static_cast<std::size_t>(cfg_.num_buckets) * (sizeof(Bucket) + 4);
  dev_.alloc_static(bucket_bytes);
  buckets_ = std::vector<Bucket>(cfg_.num_buckets);
  bucket_locks_ = std::vector<gpusim::PaddedBucketLock>(cfg_.num_buckets);

  const std::size_t heap_bytes =
      cfg_.heap_bytes == 0 ? dev_.mem_free() : cfg_.heap_bytes;
  // A device too small to hold even one heap page is a capacity failure,
  // not a caller mistake: surface it as the typed OOM so run paths fold it
  // into RunError::kDeviceOutOfMemory instead of letting it escape.
  if (heap_bytes < cfg_.page_size)
    throw gpusim::DeviceOutOfMemory(cfg_.page_size, dev_.static_used(),
                                    dev_.capacity());
  pool_pages_ =
      std::make_unique<alloc::PagePool>(dev_, heap_bytes, cfg_.page_size);
  pool_pages_->set_journal(ctx_.journal());
  host_heap_ = std::make_unique<alloc::HostHeap>(cfg_.page_size);

  const std::uint32_t groups =
      (cfg_.num_buckets + cfg_.buckets_per_group - 1) / cfg_.buckets_per_group;
  const std::uint32_t classes =
      cfg_.org == Organization::kMultiValued ? 3u : 1u;
  allocator_ = std::make_unique<alloc::BucketGroupAllocator>(
      *pool_pages_, *host_heap_, groups, classes);
}

std::uint32_t BucketChainStore::bucket_of(std::string_view key) const noexcept {
  return bucket_of(hash_key(key));
}

namespace {

// The probe loop shared by both entry layouts (KvEntry, KeyEntry): both
// start with next_dev and carry key_len/key().
template <typename Entry>
DevPtr walk_chain(const gpusim::Device& dev, gpusim::RunStats& stats,
                  DevPtr head, std::string_view key) {
  std::uint32_t links = 0;
  std::uint64_t bytes = 0;
  DevPtr p = head;
  while (p != gpusim::kDevNull) {
    ++links;
    const auto* e = dev.ptr<Entry>(p);
    bytes += std::min<std::uint64_t>(e->key_len, key.size());
    if (e->key() == key) break;
    p = e->next_dev;
  }
  stats.add_chain_links(links);
  stats.add_key_compare_bytes(bytes);
  return p;
}

}  // namespace

DevPtr BucketChainStore::find_in_chain(std::uint32_t b,
                                       std::string_view key) const {
  return walk_chain<KvEntry>(
      dev_, stats_, buckets_[b].head_dev.load(std::memory_order_relaxed), key);
}

DevPtr BucketChainStore::find_key_entry(std::uint32_t b,
                                        std::string_view key) const {
  return walk_chain<KeyEntry>(
      dev_, stats_, buckets_[b].head_dev.load(std::memory_order_relaxed), key);
}

void BucketChainStore::clear_device_chains() {
  for (Bucket& b : buckets_)
    b.head_dev.store(gpusim::kDevNull, std::memory_order_relaxed);
}

void BucketChainStore::flush_pages(const std::vector<std::uint32_t>& pages) {
  std::uint64_t flushed_pages = 0, flushed_bytes = 0;
  for (const std::uint32_t p : pages) {
    auto& meta = pool_pages_->meta(p);
    const std::uint32_t used = meta.used.load(std::memory_order_relaxed);
    const std::uint64_t slot = meta.host_slot.load(std::memory_order_relaxed);
    if (used > 0) {
      host_heap_->store_page(slot, dev_.ptr(pool_pages_->page_base(p)), used);
      dev_.bus().d2h(used);
      // Flushes halt computation (§IV-C): each page copy is a barrier
      // command on the d2h path.
      ctx_.flush_d2h(used);
      flushed_bytes_ += used;
      ++flush_pages_;
      ++flushed_pages;
      flushed_bytes += used;
    }
    pool_pages_->release(p, &stats_);
  }
  if (auto* hook = stats_.trace_hook(); hook && flushed_pages > 0)
    hook->on_flush(flushed_pages, flushed_bytes);
}

std::vector<HostPtr> BucketChainStore::take_host_heads() {
  std::vector<HostPtr> heads(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    heads[i] = buckets_[i].head_host;
  dev_.bus().d2h(buckets_.size() * sizeof(HostPtr));
  ctx_.flush_d2h(buckets_.size() * sizeof(HostPtr));
  return heads;
}

HashTableStats BucketChainStore::table_stats() const noexcept {
  HashTableStats s;
  s.flushed_bytes = flushed_bytes_;
  s.flush_pages = flush_pages_;
  // Resident bytes: pages currently out of the pool.
  for (std::uint32_t p = 0; p < pool_pages_->page_count(); ++p) {
    const auto& m = pool_pages_->meta(p);
    if (!m.in_pool.load(std::memory_order_relaxed))
      s.resident_entry_bytes += m.used.load(std::memory_order_relaxed);
  }
  s.table_bytes = s.flushed_bytes + s.resident_entry_bytes;
  return s;
}

}  // namespace sepo::core
