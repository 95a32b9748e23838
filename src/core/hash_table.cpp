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

// Resolves a probe line's handles in the simulated device: a handle is an
// entry's device offset, and a chain ends at kDevNull (0).
template <typename Entry>
struct DeviceChain {
  const gpusim::Device& dev;
  [[nodiscard]] const Entry* at(std::uint64_t h) const noexcept {
    return dev.ptr<Entry>(h);
  }
  [[nodiscard]] static std::uint64_t next(const Entry& e) noexcept {
    return e.next_dev;
  }
};

// True when a value occupies exactly one 8-byte word of its entry.
constexpr bool one_word(std::uint32_t val_len) noexcept {
  return pad8(val_len) == 8;
}
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
  // Charged at the compact device layout (device head, host head, 4-byte
  // lock word), NOT at sizeof(ProbeLine): the probe line is a host-side
  // cache and must not shrink the simulated heap.
  const std::size_t bucket_bytes = static_cast<std::size_t>(cfg_.num_buckets) *
                                   (sizeof(DevPtr) + sizeof(HostPtr) + 4);
  dev_.alloc_static(bucket_bytes);
  lines_ = std::vector<ProbeLine>(cfg_.num_buckets);
  head_host_.assign(cfg_.num_buckets, alloc::kHostNull);
  worker_rows_ = ctx_.pool().worker_count();
  accesses_ = std::vector<std::atomic<std::uint32_t>>(
      (worker_rows_ + 1) * cfg_.num_buckets);

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

template <typename Entry>
Probe SepoHashTable::probe(const ProbeLine& line, std::string_view key,
                           std::uint8_t tag) const {
  return core::probe(line, key, tag, DeviceChain<Entry>{dev_});
}

// "New KV pairs are always inserted at the head of the bucket linked list"
// (§III-B); the line's release stores publish the filled-in entry.
template <typename Entry>
void SepoHashTable::prepend(std::uint32_t b, const alloc::Allocation& a,
                            std::uint8_t tag) {
  auto* e = dev_.ptr<Entry>(a.dev);
  ProbeLine& line = lines_[b];
  e->next_dev = line.head();
  e->next_host = head_host_[b];
  head_host_[b] = a.host;
  line.push(a.dev, e->key_len, tag);
  stats_.add_inserts_new();
}

void SepoHashTable::count_access(std::uint32_t b) noexcept {
  const std::size_t w = gpusim::current_worker_slot();
  if (w < worker_rows_) {  // the row's only writer
    std::atomic<std::uint32_t>& c = accesses_[w * cfg_.num_buckets + b];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  } else {
    accesses_[worker_rows_ * cfg_.num_buckets + b].fetch_add(
        1, std::memory_order_relaxed);
  }
}

gpusim::BucketLoad SepoHashTable::bucket_load() const noexcept {
  gpusim::BucketLoad load;
  const std::size_t nb = cfg_.num_buckets;
  for (std::size_t b = 0; b < nb; ++b) {
    std::uint64_t n = 0;
    for (std::size_t i = b; i < accesses_.size(); i += nb)
      n += accesses_[i].load(std::memory_order_relaxed);
    load.total_accesses += n;
    load.max_bucket_accesses = std::max(load.max_bucket_accesses, n);
  }
  return load;
}

void SepoHashTable::combine(DevPtr p, std::span<const std::byte> value) {
  auto* e = dev_.ptr<KvEntry>(p);
  const std::uint32_t len =
      std::min(e->val_len, static_cast<std::uint32_t>(value.size()));
  stats_.add_combines();
  if (!one_word(e->val_len)) {
    cfg_.combiner(e->value_data(), value.data(), len);
    return;
  }
  std::atomic_ref<std::uint64_t> word(
      *reinterpret_cast<std::uint64_t*>(e->value_data()));
  std::uint64_t old = word.load(std::memory_order_relaxed);
  std::uint64_t retries = 0;
  for (;;) {
    std::uint64_t next = old;
    cfg_.combiner(reinterpret_cast<std::byte*>(&next), value.data(), len);
    if (next == old ||
        word.compare_exchange_weak(old, next, std::memory_order_relaxed))
      break;
    ++retries;
  }
  if (retries != 0) stats_.add_atomic_retries(retries);
}

Status SepoHashTable::insert(std::string_view key,
                             std::span<const std::byte> value) {
  assert(!finalized_);
  stats_.add_hash_ops();
  const std::uint64_t h = hash_key(key);
  const std::uint32_t b = bucket_of(h);
  const std::uint32_t g = b / cfg_.buckets_per_group;
  const std::uint8_t tag = probe_tag(h);
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto val_len = static_cast<std::uint32_t>(value.size());
  ProbeLine& line = lines_[b];
  count_access(b);

  // Probe first, lock to publish (DESIGN.md §5a): an insert that will
  // publish nothing, a one-word combine or a refusal by the dry heap, takes
  // no bucket lock. The simulated device still takes it, so every path
  // counts one acquire.
  const std::uint32_t kv_bytes = KvEntry::byte_size(key_len, val_len);
  Probe found;
  switch (cfg_.org) {
    case Organization::kMultiValued: {
      found = probe<KeyEntry>(line, key, tag);
      const std::uint32_t value_bytes = ValueEntry::byte_size(val_len);
      if (found.hit != gpusim::kDevNull &&
          allocator_->refuses(g, alloc::PageClass::kValue, value_bytes)) {
        mark_pending(found.hit);
        return postpone_unlocked(found, g, alloc::PageClass::kValue,
                                 value_bytes);
      }
      const std::uint32_t key_bytes = KeyEntry::byte_size(key_len);
      if (found.hit == gpusim::kDevNull &&
          refused_miss(line, found, g, alloc::PageClass::kKey, key_bytes))
        return postpone_unlocked(found, g, alloc::PageClass::kKey, key_bytes);
      break;
    }
    case Organization::kCombining:
      found = probe<KvEntry>(line, key, tag);
      if (found.hit != gpusim::kDevNull &&
          one_word(dev_.ptr<KvEntry>(found.hit)->val_len)) {
        stats_.add_lock_acquires();
        charge(found);
        combine(found.hit, value);
        return Status::kSuccess;
      }
      if (found.hit == gpusim::kDevNull &&
          refused_miss(line, found, g, alloc::PageClass::kGeneric, kv_bytes))
        return postpone_unlocked(found, g, alloc::PageClass::kGeneric,
                                 kv_bytes);
      break;
    case Organization::kBasic:
      // Duplicate keys are kept as separate entries: no chain probe.
      if (allocator_->refuses(g, alloc::PageClass::kGeneric, kv_bytes))
        return postpone_unlocked(found, g, alloc::PageClass::kGeneric,
                                 kv_bytes);
      break;
  }

  gpusim::DeviceLockGuard guard(line.lock, stats_);
  // An unmoved version means no prepend since the probe, so its miss is
  // exact; probing again would charge the walk twice. A hit stays a hit.
  const bool reprobe = cfg_.org != Organization::kBasic &&
                       found.hit == gpusim::kDevNull &&
                       line.version.load(std::memory_order_relaxed) !=
                           found.version;
  switch (cfg_.org) {
    case Organization::kMultiValued: {
      if (reprobe) found = probe<KeyEntry>(line, key, tag);
      charge(found);
      DevPtr kp = found.hit;
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
        prepend<KeyEntry>(b, ka, tag);
        kp = ka.dev;
      }
      return append_value(g, kp, value);
    }
    case Organization::kCombining:
      if (reprobe) found = probe<KvEntry>(line, key, tag);
      charge(found);
      if (found.hit != gpusim::kDevNull) {
        combine(found.hit, value);
        return Status::kSuccess;
      }
      break;  // a new key is inserted as in the basic organization
    case Organization::kBasic:
      break;
  }

  const alloc::Allocation a =
      allocator_->alloc(g, alloc::PageClass::kGeneric, kv_bytes, stats_);
  if (!a.ok()) return Status::kPostpone;
  auto* e = dev_.ptr<KvEntry>(a.dev);
  e->key_len = key_len;
  e->val_len = val_len;
  std::memcpy(e->key_data(), key.data(), key_len);
  if (val_len) std::memcpy(e->value_data(), value.data(), val_len);
  prepend<KvEntry>(b, a, tag);
  return Status::kSuccess;
}

bool SepoHashTable::refused_miss(const ProbeLine& line, const Probe& miss,
                                 std::uint32_t g, alloc::PageClass cls,
                                 std::uint32_t bytes) const noexcept {
  if (!allocator_->refuses(g, cls, bytes)) return false;
  // A refusal stays a refusal for the rest of the pass, so a version read
  // after it that has not moved since the probe means the key was still
  // missing while the heap refused it.
  std::atomic_thread_fence(std::memory_order_acquire);
  return line.version.load(std::memory_order_relaxed) == miss.version;
}

Status SepoHashTable::postpone_unlocked(const Probe& p, std::uint32_t g,
                                        alloc::PageClass cls,
                                        std::uint32_t bytes) {
  stats_.add_lock_acquires();  // the bucket lock the device takes
  charge(p);
  // refuses() held and stays true for the pass: this fails without the
  // slot lock and counts what the locked failure counts.
  const alloc::Allocation a = allocator_->alloc(g, cls, bytes, stats_);
  assert(!a.ok());
  (void)a;
  return Status::kPostpone;
}

void SepoHashTable::mark_pending(DevPtr kp) noexcept {
  // Only ever tested > 0: a set-once flag, written only by the first
  // refusal, so later refusals leave the page's line shared.
  std::atomic<std::uint32_t>& pending =
      pool_->meta(dev_.ptr<KeyEntry>(kp)->page).pending_keys;
  if (pending.load(std::memory_order_relaxed) == 0)
    pending.store(1, std::memory_order_relaxed);
}

Status SepoHashTable::append_value(std::uint32_t g, DevPtr kp,
                                   std::span<const std::byte> value) {
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const alloc::Allocation va = allocator_->alloc(
      g, alloc::PageClass::kValue, ValueEntry::byte_size(val_len), stats_);
  if (!va.ok()) {
    mark_pending(kp);
    return Status::kPostpone;
  }
  auto* ke = dev_.ptr<KeyEntry>(kp);
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
  const std::uint64_t h = hash_key(key);
  const Probe found = probe<KvEntry>(lines_[bucket_of(h)], key, probe_tag(h));
  charge(found);
  return found.hit == gpusim::kDevNull ? nullptr : dev_.ptr<KvEntry>(found.hit);
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
      for (ProbeLine& line : lines_) line.len.store(0, std::memory_order_relaxed);
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
          const std::uint64_t h = hash_key(ke->key());
          ProbeLine& line = lines_[bucket_of(h)];
          ke->vhead_dev = gpusim::kDevNull;  // all value pages were flushed
          gpusim::DeviceLockGuard guard(line.lock, stats_);
          ke->next_dev = line.head();
          line.push(ep, ke->key_len, probe_tag(h));
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
      for (ProbeLine& line : lines_) line.len.store(0, std::memory_order_relaxed);
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
  const std::size_t head_bytes = head_host_.size() * sizeof(HostPtr);
  dev_.bus().d2h(head_bytes);
  ctx_.flush_d2h(head_bytes);
  return HostTable(cfg_.org, std::move(head_host_), *host_heap_, cfg_.combiner,
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
  std::vector<std::uint64_t> hist(max_len + 1, 0);
  for (const ProbeLine& line : lines_)
    ++hist[std::min<std::size_t>(line.len.load(std::memory_order_relaxed),
                                 max_len)];
  return hist;
}

}  // namespace sepo::core
