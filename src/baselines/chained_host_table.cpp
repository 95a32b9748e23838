#include "baselines/chained_host_table.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace sepo::baselines {

namespace {

// Heap growth step per placement. The CPU step is one TCMalloc-sized span
// per thread; the pinned region grows in larger steps under its lock.
constexpr std::size_t kCpuChunkBytes = 256u << 10;
constexpr std::size_t kPinnedChunkBytes = 1u << 20;
constexpr std::uint32_t kCpuArenas = 64;  // thread slots, tid % kCpuArenas

}  // namespace

ChainedHostTable::ChainedHostTable(gpusim::RunStats& stats,
                                   ChainedHostTableConfig cfg,
                                   gpusim::PcieBus* bus, gpusim::Device* dev)
    : stats_(stats), cfg_(cfg), bus_(bus), dev_(dev) {
  if (cfg_.num_buckets == 0 || (cfg_.num_buckets & (cfg_.num_buckets - 1)))
    throw std::invalid_argument("num_buckets must be a power of two");
  if (cfg_.org == core::Organization::kCombining && cfg_.combiner == nullptr)
    throw std::invalid_argument("combining organization requires a combiner");
  bucket_mask_ = cfg_.num_buckets - 1;
  heads_ = std::vector<std::atomic<void*>>(cfg_.num_buckets);
  for (auto& h : heads_) h.store(nullptr, std::memory_order_relaxed);
  locks_ = std::vector<gpusim::PaddedBucketLock>(cfg_.num_buckets);
  if (dev_ == nullptr)
    arenas_ = std::vector<Arena>(bus_ == nullptr ? kCpuArenas : 1);
}

ChainedHostTable::ChainedHostTable(gpusim::RunStats& stats,
                                   ChainedHostTableConfig cfg)
    : ChainedHostTable(stats, cfg, nullptr, nullptr) {}

ChainedHostTable::ChainedHostTable(gpusim::ExecContext& ctx,
                                   ChainedHostTableConfig cfg,
                                   EntryMemory entries)
    : ChainedHostTable(
          ctx.stats(), cfg,
          entries == EntryMemory::kPinnedHost ? &ctx.device().bus() : nullptr,
          entries == EntryMemory::kDevice ? &ctx.device() : nullptr) {
  // Bucket heads + locks are device-resident.
  ctx.device().alloc_static(static_cast<std::size_t>(cfg_.num_buckets) * 12);
}

ChainedHostTable::~ChainedHostTable() = default;

void ChainedHostTable::carve_device_heap() {
  device_heap_bytes_ = dev_->mem_free();
  device_heap_ = dev_->ptr(dev_->alloc_static(device_heap_bytes_, 64));
}

void* ChainedHostTable::Arena::bump(std::size_t bytes,
                                    std::size_t chunk_bytes) {
  used += bytes;
  if (bytes > left) {
    if (bytes > chunk_bytes)
      return chunks.emplace_back(std::make_unique<std::byte[]>(bytes)).get();
    cursor = chunks.emplace_back(std::make_unique<std::byte[]>(chunk_bytes))
                 .get();
    left = chunk_bytes;
  }
  void* p = cursor;
  cursor += bytes;
  left -= bytes;
  return p;
}

void* ChainedHostTable::alloc(std::uint32_t tid, std::size_t bytes) {
  bytes = core::pad8(bytes);
  stats_.add_alloc_ops();
  if (dev_ != nullptr) {
    tallies_.add(kSerialAtomicOps, 1);
    const std::uint64_t off =
        device_heap_used_.fetch_add(bytes, std::memory_order_relaxed);
    if (off + bytes > device_heap_bytes_) {
      stats_.add_alloc_fails();
      return nullptr;
    }
    return device_heap_ + off;
  }
  if (bus_ == nullptr)
    return arenas_[tid % arenas_.size()].bump(bytes, kCpuChunkBytes);
  gpusim::DeviceLockGuard guard(heap_lock_, stats_);
  return arenas_.front().bump(bytes, kPinnedChunkBytes);
}

std::size_t ChainedHostTable::allocated_bytes() const noexcept {
  std::size_t n = device_heap_used_.load(std::memory_order_relaxed);
  for (const Arena& a : arenas_) n += a.used;
  return n;
}

template <typename Entry>
Entry* ChainedHostTable::find(std::uint32_t b, std::string_view key) {
  for (auto* e = chain<Entry>(b); e != nullptr; e = e->next) {
    stats_.add_chain_links();
    remote(sizeof(Entry) + e->key_len);
    stats_.add_key_compare_bytes(std::min<std::size_t>(e->key_len, key.size()));
    if (e->key() == key) return e;
  }
  return nullptr;
}

ChainedHostTable::KvEntry* ChainedHostTable::new_kv(
    std::uint32_t tid, std::string_view key,
    std::span<const std::byte> value) {
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const std::size_t sz =
      sizeof(KvEntry) + core::pad8(key_len) + core::pad8(val_len);
  auto* e = static_cast<KvEntry*>(alloc(tid, sz));
  if (e == nullptr) return nullptr;
  e->key_len = key_len;
  e->val_len = val_len;
  std::memcpy(e->key_data(), key.data(), key_len);
  if (val_len) std::memcpy(e->value_data(), value.data(), val_len);
  remote(sz);
  return e;
}

core::Status ChainedHostTable::insert_combining(
    std::uint32_t tid, std::uint32_t b, std::string_view key,
    std::span<const std::byte> value) {
  if (KvEntry* e = find<KvEntry>(b, key)) {
    cfg_.combiner(e->value_data(), value.data(),
                  std::min<std::uint32_t>(
                      e->val_len, static_cast<std::uint32_t>(value.size())));
    remote(2 * e->val_len);  // read-modify-write of the value
    stats_.add_combines();
    return core::Status::kSuccess;
  }
  KvEntry* e = new_kv(tid, key, value);
  if (e == nullptr) return core::Status::kPostpone;
  push(b, e);
  return core::Status::kSuccess;
}

core::Status ChainedHostTable::insert_multivalued(
    std::uint32_t tid, std::uint32_t b, std::string_view key,
    std::span<const std::byte> value) {
  KeyEntry* ke = find<KeyEntry>(b, key);
  if (ke == nullptr) {
    const auto key_len = static_cast<std::uint32_t>(key.size());
    const std::size_t ksz = sizeof(KeyEntry) + core::pad8(key_len);
    ke = static_cast<KeyEntry*>(alloc(tid, ksz));
    if (ke == nullptr) return core::Status::kPostpone;
    ke->vhead = nullptr;
    ke->key_len = key_len;
    ke->pad_ = 0;
    std::memcpy(ke->key_data(), key.data(), key_len);
    remote(ksz);
    push(b, ke);
  }
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const std::size_t vsz = sizeof(ValueEntry) + core::pad8(val_len);
  auto* ve = static_cast<ValueEntry*>(alloc(tid, vsz));
  if (ve == nullptr) return core::Status::kPostpone;
  ve->val_len = val_len;
  ve->pad_ = 0;
  if (val_len) std::memcpy(ve->value_data(), value.data(), val_len);
  ve->next = ke->vhead;
  ke->vhead = ve;
  remote(vsz + sizeof(void*));  // value entry + the key's list head
  tallies_.add(kValues, 1);
  stats_.add_value_appends();
  return core::Status::kSuccess;
}

std::optional<std::span<const std::byte>> ChainedHostTable::lookup(
    std::string_view key) const {
  for (const auto* e = chain<KvEntry>(bucket_of(hash_key(key))); e != nullptr;
       e = e->next)
    if (e->key() == key) return std::span{e->value_data(), e->val_len};
  return std::nullopt;
}

std::vector<std::span<const std::byte>> ChainedHostTable::lookup_all(
    std::string_view key) const {
  std::vector<std::span<const std::byte>> out;
  for (const auto* e = chain<KvEntry>(bucket_of(hash_key(key))); e != nullptr;
       e = e->next)
    if (e->key() == key) out.emplace_back(e->value_data(), e->val_len);
  return out;
}

std::optional<std::vector<std::span<const std::byte>>>
ChainedHostTable::lookup_group(std::string_view key) const {
  for (const auto* e = chain<KeyEntry>(bucket_of(hash_key(key))); e != nullptr;
       e = e->next) {
    if (e->key() != key) continue;
    std::vector<std::span<const std::byte>> vals;
    for (const auto* v = e->vhead; v != nullptr; v = v->next)
      vals.emplace_back(v->value_data(), v->val_len);
    return vals;
  }
  return std::nullopt;
}

void ChainedHostTable::for_each(
    const std::function<void(std::string_view, std::span<const std::byte>)>&
        fn) const {
  for (std::uint32_t b = 0; b < num_buckets(); ++b) for_each_in(b, fn);
}

void ChainedHostTable::for_each_group(
    const std::function<void(std::string_view,
                             const std::vector<std::span<const std::byte>>&)>&
        fn) const {
  std::vector<std::span<const std::byte>> vals;
  for (std::uint32_t b = 0; b < num_buckets(); ++b)
    for_each_group_in(b, vals, fn);
}

}  // namespace sepo::baselines
