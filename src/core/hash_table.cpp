#include "core/hash_table.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/hashing.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::core {

namespace {
constexpr bool is_pow2(std::uint64_t v) { return v && (v & (v - 1)) == 0; }
}  // namespace

SepoHashTable::SepoHashTable(gpusim::ExecContext& ctx, HashTableConfig cfg)
    : ctx_(ctx), dev_(ctx.device()), stats_(ctx.stats()), cfg_(cfg) {
  if (!is_pow2(cfg_.num_buckets))
    throw std::invalid_argument("num_buckets must be a power of two");
  if (cfg_.buckets_per_group == 0 || cfg_.buckets_per_group > cfg_.num_buckets)
    throw std::invalid_argument("invalid buckets_per_group");
  if (cfg_.org == Organization::kCombining && cfg_.combiner == nullptr)
    throw std::invalid_argument("combining organization requires a combiner");

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
  pool_ = std::make_unique<alloc::PagePool>(dev_, heap_bytes, cfg_.page_size);
  pool_->set_journal(ctx_.journal());
  host_heap_ = std::make_unique<alloc::HostHeap>(cfg_.page_size);

  const std::uint32_t groups =
      (cfg_.num_buckets + cfg_.buckets_per_group - 1) / cfg_.buckets_per_group;
  const std::uint32_t classes =
      cfg_.org == Organization::kMultiValued ? 3u : 1u;
  allocator_ = std::make_unique<alloc::BucketGroupAllocator>(
      *pool_, *host_heap_, groups, classes);
}

std::uint32_t SepoHashTable::bucket_of(std::string_view key) const noexcept {
  return static_cast<std::uint32_t>(hash_key(key)) & (cfg_.num_buckets - 1);
}

// The probe loop shared by both chained layouts (KvEntry, KeyEntry): both
// start with next_dev and carry key_len/key().
template <typename Entry>
DevPtr SepoHashTable::find(std::uint32_t b, std::string_view key) const {
  std::uint32_t links = 0;
  std::uint64_t bytes = 0;
  DevPtr p = buckets_[b].head_dev.load(std::memory_order_relaxed);
  while (p != gpusim::kDevNull) {
    ++links;
    const auto* e = dev_.ptr<Entry>(p);
    bytes += std::min<std::uint64_t>(e->key_len, key.size());
    if (e->key() == key) break;
    p = e->next_dev;
  }
  stats_.add_chain_links(links);
  stats_.add_key_compare_bytes(bytes);
  return p;
}

// "New KV pairs are always inserted at the head of the bucket linked list"
// (§III-B); the release store publishes the filled-in entry.
template <typename Entry>
void SepoHashTable::prepend(std::uint32_t b, const alloc::Allocation& a) {
  auto* e = dev_.ptr<Entry>(a.dev);
  Bucket& bucket = buckets_[b];
  e->next_dev = bucket.head_dev.load(std::memory_order_relaxed);
  e->next_host = bucket.head_host;
  bucket.head_host = a.host;
  bucket.head_dev.store(a.dev, std::memory_order_release);
  stats_.add_inserts_new();
}

Status SepoHashTable::insert(std::string_view key,
                             std::span<const std::byte> value) {
  assert(!finalized_);
  stats_.add_hash_ops();
  const std::uint32_t b = bucket_of(key);
  const std::uint32_t g = b / cfg_.buckets_per_group;
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto val_len = static_cast<std::uint32_t>(value.size());

  gpusim::DeviceLockGuard guard(bucket_locks_[b].lock, stats_);
  ++bucket_locks_[b].accesses;
  switch (cfg_.org) {
    case Organization::kMultiValued: {
      DevPtr kp = find<KeyEntry>(b, key);
      if (kp == gpusim::kDevNull) {
        const alloc::Allocation ka = allocator_->alloc(
            g, alloc::PageClass::kKey, KeyEntry::byte_size(key_len), stats_);
        if (!ka.ok()) return Status::kPostpone;
        auto* ke = dev_.ptr<KeyEntry>(ka.dev);
        ke->vhead_dev = gpusim::kDevNull;
        ke->vhead_host = alloc::kHostNull;
        ke->key_len = key_len;
        ke->page = ka.page;
        std::memcpy(ke->key_data(), key.data(), key_len);
        prepend<KeyEntry>(b, ka);
        kp = ka.dev;
      }
      return append_value(g, kp, value);
    }
    case Organization::kCombining:
      if (const DevPtr p = find<KvEntry>(b, key); p != gpusim::kDevNull) {
        auto* e = dev_.ptr<KvEntry>(p);
        cfg_.combiner(e->value_data(), value.data(),
                      std::min(e->val_len, val_len));
        stats_.add_combines();
        return Status::kSuccess;
      }
      [[fallthrough]];  // a new key is inserted as in the basic organization
    case Organization::kBasic:
      // Duplicate keys are kept as separate entries: no chain probe.
      break;
  }

  const alloc::Allocation a =
      allocator_->alloc(g, alloc::PageClass::kGeneric,
                        KvEntry::byte_size(key_len, val_len), stats_);
  if (!a.ok()) return Status::kPostpone;
  auto* e = dev_.ptr<KvEntry>(a.dev);
  e->key_len = key_len;
  e->val_len = val_len;
  std::memcpy(e->key_data(), key.data(), key_len);
  if (val_len) std::memcpy(e->value_data(), value.data(), val_len);
  prepend<KvEntry>(b, a);
  return Status::kSuccess;
}

Status SepoHashTable::append_value(std::uint32_t g, DevPtr kp,
                                   std::span<const std::byte> value) {
  const auto val_len = static_cast<std::uint32_t>(value.size());
  auto* ke = dev_.ptr<KeyEntry>(kp);
  const alloc::Allocation va = allocator_->alloc(
      g, alloc::PageClass::kValue, ValueEntry::byte_size(val_len), stats_);
  if (!va.ok()) {
    pool_->meta(ke->page).pending_keys.fetch_add(1, std::memory_order_relaxed);
    return Status::kPostpone;
  }
  auto* ve = dev_.ptr<ValueEntry>(va.dev);
  ve->next_dev = ke->vhead_dev;
  ve->next_host = ke->vhead_host;
  ve->val_len = val_len;
  ve->pad_ = 0;
  if (val_len) std::memcpy(ve->value_data(), value.data(), val_len);
  ke->vhead_dev = va.dev;
  ke->vhead_host = va.host;
  stats_.add_value_appends();
  return Status::kSuccess;
}

const KvEntry* SepoHashTable::find_resident(std::string_view key) const {
  if (cfg_.org == Organization::kMultiValued)
    throw std::logic_error(
        "find_resident: a multi-valued table chains KeyEntry, not KvEntry");
  stats_.add_hash_ops();
  const DevPtr p = find<KvEntry>(bucket_of(key), key);
  return p == gpusim::kDevNull ? nullptr : dev_.ptr<KvEntry>(p);
}

void SepoHashTable::apply_pressure() {
  gpusim::FaultInjector* const f = ctx_.faults();
  if (f == nullptr || f->config().pressure_rate <= 0) return;
  bool new_spike = false;
  const std::uint32_t target =
      f->pressure_target(pool_->page_count(), new_spike);
  if (new_spike) stats_.add_pressure_spikes();
  gpusim::EventJournal* const journal = ctx_.journal();
  if (new_spike && journal != nullptr)
    journal->record(gpusim::JournalEventKind::kPressureBegin, target);
  const std::size_t held_before = pressure_pages_.size();
  // Seize pages straight from the pool (they count as page_acquires — the
  // spike is indistinguishable from another tenant grabbing memory). If the
  // pool runs dry mid-seize the spike simply holds less than it wanted.
  while (pressure_pages_.size() < target) {
    const std::uint32_t p = pool_->acquire(stats_);
    if (p == alloc::kInvalidPage) break;
    pressure_pages_.push_back(p);
  }
  while (pressure_pages_.size() > target) {
    pool_->release(pressure_pages_.back(), &stats_);
    pressure_pages_.pop_back();
  }
  if (held_before > 0 && pressure_pages_.empty() && journal != nullptr)
    journal->record(gpusim::JournalEventKind::kPressureEnd, held_before);
}

bool SepoHashTable::should_halt(double halt_frac) const noexcept {
  return allocator_->postponed_groups() >=
         static_cast<std::uint32_t>(halt_frac * allocator_->num_groups());
}

void SepoHashTable::begin_iteration() {
  stats_.add_iterations();
  allocator_->reset_postponed();
  apply_pressure();
  switch (cfg_.org) {
    case Organization::kBasic:
    case Organization::kCombining:
      break;  // end_iteration already emptied the device chains
    case Organization::kMultiValued:
      // The device chains point into the value and key pages flushed at the
      // end of the previous iteration: reset them and re-link only the
      // entries on resident key pages. Host chains are complete and
      // untouched.
      for (const std::uint32_t p : resident_key_pages_)
        pool_->meta(p).pending_keys.store(0, std::memory_order_relaxed);
      for (Bucket& bucket : buckets_)
        bucket.head_dev.store(gpusim::kDevNull, std::memory_order_relaxed);
      // One kernel over resident pages: each page is walked linearly
      // (entries are contiguous and self-sizing). Scheduled through the
      // context so the rebuild shows up on the compute timeline like any
      // other kernel.
      ctx_.launch(resident_key_pages_.size(), [&](std::size_t i) {
        const std::uint32_t page = resident_key_pages_[i];
        const std::uint32_t used =
            pool_->meta(page).used.load(std::memory_order_relaxed);
        const DevPtr base = pool_->page_base(page);
        for (std::uint32_t off = 0; off < used;) {
          const DevPtr ep = base + off;
          auto* ke = dev_.ptr<KeyEntry>(ep);
          // The only hash recomputation left on the insert side: entries do
          // not carry their hash (the paper-fixed layout spends its header
          // bytes on the dual dev/host pointers), so re-linking a resident
          // page must rehash each key once per iteration.
          const std::uint32_t b = bucket_of(ke->key());
          ke->vhead_dev = gpusim::kDevNull;  // all value pages were flushed
          gpusim::DeviceLockGuard guard(bucket_locks_[b].lock, stats_);
          ke->next_dev = buckets_[b].head_dev.load(std::memory_order_relaxed);
          buckets_[b].head_dev.store(ep, std::memory_order_release);
          stats_.add_chain_links();
          off += ke->byte_size();
        }
      });
      break;
  }
}

void SepoHashTable::end_iteration() {
  std::vector<std::uint32_t> to_flush;
  switch (cfg_.org) {
    case Organization::kBasic:
    case Organization::kCombining:
      // Figure 5 (a), (c): the entire heap flushes. The device chains now
      // point into freed pages: reset them. Host chains are complete and
      // untouched.
      allocator_->detach_active_pages(to_flush);
      allocator_->take_retired_pages(to_flush);
      for (Bucket& bucket : buckets_)
        bucket.head_dev.store(gpusim::kDevNull, std::memory_order_relaxed);
      break;
    case Organization::kMultiValued: {
      // Figure 5 (b): all value pages flush, and so do key pages with no
      // pending keys; key pages with pending keys stay resident.
      allocator_->detach_active_pages(alloc::PageClass::kValue, to_flush);
      allocator_->take_retired_pages(alloc::PageClass::kValue, to_flush);
      std::vector<std::uint32_t> key_pages;
      allocator_->detach_active_pages(alloc::PageClass::kKey, key_pages);
      allocator_->take_retired_pages(alloc::PageClass::kKey, key_pages);
      key_pages.insert(key_pages.end(), resident_key_pages_.begin(),
                       resident_key_pages_.end());
      resident_key_pages_.clear();
      for (const std::uint32_t p : key_pages) {
        if (pool_->meta(p).pending_keys.load(std::memory_order_relaxed) > 0)
          resident_key_pages_.push_back(p);
        else
          to_flush.push_back(p);
      }
      // Livelock valve: if pending key pages would starve the pool (every
      // page resident, nothing left for values — a failure mode the paper's
      // flush rule does not address), flush them too. Their pending keys
      // will be re-materialized as duplicate entries that HostTable merges
      // on read.
      const auto cap = static_cast<std::size_t>(cfg_.max_resident_key_frac *
                                                pool_->page_count());
      if (resident_key_pages_.size() > cap) {
        to_flush.insert(to_flush.end(), resident_key_pages_.begin(),
                        resident_key_pages_.end());
        resident_key_pages_.clear();
      }
      break;
    }
  }
  flush_pages(to_flush);
}

void SepoHashTable::flush_pages(const std::vector<std::uint32_t>& pages) {
  std::uint64_t flushed_pages = 0, flushed_bytes = 0;
  for (const std::uint32_t p : pages) {
    auto& meta = pool_->meta(p);
    const std::uint32_t used = meta.used.load(std::memory_order_relaxed);
    const std::uint64_t slot = meta.host_slot.load(std::memory_order_relaxed);
    if (used > 0) {
      host_heap_->store_page(slot, dev_.ptr(pool_->page_base(p)), used);
      dev_.bus().d2h(used);
      // Flushes halt computation (§IV-C): each page copy is a barrier
      // command on the d2h path.
      ctx_.flush_d2h(used);
      flushed_bytes_ += used;
      ++flush_pages_;
      ++flushed_pages;
      flushed_bytes += used;
    }
    pool_->release(p, &stats_);
  }
  if (auto* hook = stats_.trace_hook(); hook && flushed_pages > 0)
    hook->on_flush(flushed_pages, flushed_bytes);
}

HostTable SepoHashTable::finalize() {
  assert(!finalized_);
  // Return any pages an injected pressure spike still holds.
  for (const std::uint32_t p : pressure_pages_) pool_->release(p, &stats_);
  pressure_pages_.clear();
  // Flush whatever is still resident. At completion no multi-valued
  // resident key has pending values, but flushing is unconditional.
  std::vector<std::uint32_t> to_flush;
  allocator_->detach_active_pages(to_flush);
  allocator_->take_retired_pages(to_flush);
  to_flush.insert(to_flush.end(), resident_key_pages_.begin(),
                  resident_key_pages_.end());
  resident_key_pages_.clear();
  flush_pages(to_flush);
  finalized_ = true;

  // Copy the bucket heads' host pointers back in one bulk transfer.
  std::vector<HostPtr> heads(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    heads[i] = buckets_[i].head_host;
  dev_.bus().d2h(buckets_.size() * sizeof(HostPtr));
  ctx_.flush_d2h(buckets_.size() * sizeof(HostPtr));
  return HostTable(cfg_.org, std::move(heads), *host_heap_, cfg_.combiner,
                   ctx_.pool());
}

HashTableStats SepoHashTable::table_stats() const noexcept {
  HashTableStats s;
  s.flushed_bytes = flushed_bytes_;
  s.flush_pages = flush_pages_;
  // Resident bytes: pages currently out of the pool.
  for (std::uint32_t p = 0; p < pool_->page_count(); ++p) {
    const auto& m = pool_->meta(p);
    if (!m.in_pool.load(std::memory_order_relaxed))
      s.resident_entry_bytes += m.used.load(std::memory_order_relaxed);
  }
  s.table_bytes = s.flushed_bytes + s.resident_entry_bytes;
  return s;
}

std::vector<std::uint64_t> SepoHashTable::resident_chain_histogram(
    std::size_t max_len) const {
  const bool key_entries = cfg_.org == Organization::kMultiValued;
  std::vector<std::uint64_t> hist(max_len + 1, 0);
  for (const Bucket& bucket : buckets_) {
    std::size_t len = 0;
    for (DevPtr p = bucket.head_dev.load(std::memory_order_relaxed);
         p != gpusim::kDevNull; ++len)
      p = key_entries ? dev_.ptr<KeyEntry>(p)->next_dev
                      : dev_.ptr<KvEntry>(p)->next_dev;
    ++hist[std::min(len, max_len)];
  }
  return hist;
}

}  // namespace sepo::core
