#include "core/organization_policy.hpp"

#include <algorithm>
#include <cstring>

#include "gpusim/launch.hpp"

namespace sepo::core {

void OrganizationPolicy::begin_iteration(BucketChainStore&) {}

void OrganizationPolicy::collect_end_of_iteration(
    BucketChainStore& store, std::vector<std::uint32_t>& to_flush) {
  // Basic and Combining flush the entire heap (Figure 5 (a), (c)). The
  // device chains now point into freed pages: reset them. Host chains are
  // complete and untouched.
  store.allocator().detach_active_pages(to_flush);
  store.allocator().take_retired_pages(to_flush);
  store.clear_device_chains();
}

void OrganizationPolicy::collect_final(BucketChainStore& store,
                                       std::vector<std::uint32_t>& to_flush) {
  store.allocator().detach_active_pages(to_flush);
  store.allocator().take_retired_pages(to_flush);
}

DevPtr OrganizationPolicy::chain_next(const gpusim::Device& dev,
                                      DevPtr p) const {
  return dev.ptr<KvEntry>(p)->next_dev;
}

namespace {

// Allocates a fresh KvEntry for <key, value> and prepends it to bucket `b`
// ("new KV pairs are always inserted at the head of the bucket linked
// list", §III-B). Caller holds the bucket lock.
Status insert_new_kv(BucketChainStore& store, std::uint32_t b,
                     std::string_view key, std::span<const std::byte> value) {
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const std::uint32_t sz = KvEntry::byte_size(key_len, val_len);
  const alloc::Allocation a = store.allocator().alloc(
      store.group_of(b), alloc::PageClass::kGeneric, sz, store.stats());
  if (!a.ok()) return Status::kPostpone;

  auto* e = store.device().ptr<KvEntry>(a.dev);
  BucketChainStore::Bucket& bucket = store.bucket(b);
  e->next_dev = bucket.head_dev.load(std::memory_order_relaxed);
  e->next_host = bucket.head_host;
  e->key_len = key_len;
  e->val_len = val_len;
  std::memcpy(e->key_data(), key.data(), key_len);
  if (val_len) std::memcpy(e->value_data(), value.data(), val_len);
  bucket.head_host = a.host;
  bucket.head_dev.store(a.dev, std::memory_order_release);
  store.stats().add_inserts_new();
  return Status::kSuccess;
}

class BasicPolicy final : public OrganizationPolicy {
 public:
  Status insert(BucketChainStore& store, std::uint32_t b, std::string_view key,
                std::span<const std::byte> value) override {
    // Duplicate keys are kept as separate entries, so no chain probe is
    // needed — allocate and prepend.
    gpusim::DeviceLockGuard guard(store.lock(b).lock, store.stats());
    ++store.lock(b).accesses;
    return insert_new_kv(store, b, key, value);
  }
};

class CombiningPolicy final : public OrganizationPolicy {
 public:
  Status insert(BucketChainStore& store, std::uint32_t b, std::string_view key,
                std::span<const std::byte> value) override {
    const auto val_len = static_cast<std::uint32_t>(value.size());
    gpusim::DeviceLockGuard guard(store.lock(b).lock, store.stats());
    ++store.lock(b).accesses;
    const DevPtr existing = store.find_in_chain(b, key);
    if (existing != gpusim::kDevNull) {
      auto* e = store.device().ptr<KvEntry>(existing);
      store.config().combiner(e->value_data(), value.data(),
                              std::min(e->val_len, val_len));
      store.stats().add_combines();
      return Status::kSuccess;
    }
    return insert_new_kv(store, b, key, value);
  }
};

class MultiValuedPolicy final : public OrganizationPolicy {
 public:
  Status insert(BucketChainStore& store, std::uint32_t b, std::string_view key,
                std::span<const std::byte> value) override {
    const auto key_len = static_cast<std::uint32_t>(key.size());
    const std::uint32_t g = store.group_of(b);

    gpusim::DeviceLockGuard guard(store.lock(b).lock, store.stats());
    ++store.lock(b).accesses;
    DevPtr kp = store.find_key_entry(b, key);

    if (kp == gpusim::kDevNull) {
      kp = insert_key_entry(store, b, g, key, key_len);
      if (kp == gpusim::kDevNull) return Status::kPostpone;
    }
    return append_value(store, g, kp, value);
  }

  void begin_iteration(BucketChainStore& store) override {
    for (const std::uint32_t p : resident_key_pages_)
      store.pool().meta(p).pending_keys.store(0, std::memory_order_relaxed);
    rebuild_device_chains(store);
  }

  void collect_end_of_iteration(BucketChainStore& store,
                                std::vector<std::uint32_t>& to_flush) override {
    // Flush all value pages plus key pages with no pending keys; key pages
    // with pending keys stay resident (Figure 5 (b)).
    store.allocator().detach_active_pages(alloc::PageClass::kValue, to_flush);
    store.allocator().take_retired_pages(alloc::PageClass::kValue, to_flush);

    std::vector<std::uint32_t> key_pages;
    store.allocator().detach_active_pages(alloc::PageClass::kKey, key_pages);
    store.allocator().take_retired_pages(alloc::PageClass::kKey, key_pages);
    key_pages.insert(key_pages.end(), resident_key_pages_.begin(),
                     resident_key_pages_.end());
    resident_key_pages_.clear();
    for (const std::uint32_t p : key_pages) {
      if (store.pool().meta(p).pending_keys.load(std::memory_order_relaxed) >
          0)
        resident_key_pages_.push_back(p);
      else
        to_flush.push_back(p);
    }
    // Livelock valve: if pending key pages would starve the pool (every page
    // resident, nothing left for values — a failure mode the paper's flush
    // rule does not address), flush them too. Their pending keys will be
    // re-materialized as duplicate entries that HostTable merges on read.
    const auto cap = static_cast<std::size_t>(
        store.config().max_resident_key_frac * store.pool().page_count());
    if (resident_key_pages_.size() > cap) {
      to_flush.insert(to_flush.end(), resident_key_pages_.begin(),
                      resident_key_pages_.end());
      resident_key_pages_.clear();
    }
  }

  void collect_final(BucketChainStore& store,
                     std::vector<std::uint32_t>& to_flush) override {
    // At completion no resident key has pending values, but flushing is
    // unconditional.
    OrganizationPolicy::collect_final(store, to_flush);
    to_flush.insert(to_flush.end(), resident_key_pages_.begin(),
                    resident_key_pages_.end());
    resident_key_pages_.clear();
  }

  [[nodiscard]] DevPtr chain_next(const gpusim::Device& dev,
                                  DevPtr p) const override {
    return dev.ptr<KeyEntry>(p)->next_dev;
  }

 private:
  // Allocates and prepends a KeyEntry for `key`; returns its dev ptr, or
  // kDevNull on allocation failure. Caller holds the bucket lock.
  static DevPtr insert_key_entry(BucketChainStore& store, std::uint32_t b,
                                 std::uint32_t g, std::string_view key,
                                 std::uint32_t key_len) {
    const alloc::Allocation ka = store.allocator().alloc(
        g, alloc::PageClass::kKey, KeyEntry::byte_size(key_len),
        store.stats());
    if (!ka.ok()) return gpusim::kDevNull;
    auto* ke = store.device().ptr<KeyEntry>(ka.dev);
    BucketChainStore::Bucket& bucket = store.bucket(b);
    ke->next_dev = bucket.head_dev.load(std::memory_order_relaxed);
    ke->next_host = bucket.head_host;
    ke->vhead_dev = gpusim::kDevNull;
    ke->vhead_host = alloc::kHostNull;
    ke->key_len = key_len;
    ke->page = ka.page;
    std::memcpy(ke->key_data(), key.data(), key_len);
    bucket.head_host = ka.host;
    bucket.head_dev.store(ka.dev, std::memory_order_release);
    store.stats().add_inserts_new();
    return ka.dev;
  }

  // Allocates a ValueEntry and links it to the key at `kp`. On failure the
  // key's page is marked pending so the Figure-5 flush rule keeps it
  // resident for the retried record.
  static Status append_value(BucketChainStore& store, std::uint32_t g,
                             DevPtr kp, std::span<const std::byte> value) {
    const auto val_len = static_cast<std::uint32_t>(value.size());
    auto* ke = store.device().ptr<KeyEntry>(kp);
    const alloc::Allocation va = store.allocator().alloc(
        g, alloc::PageClass::kValue, ValueEntry::byte_size(val_len),
        store.stats());
    if (!va.ok()) {
      store.pool().meta(ke->page).pending_keys.fetch_add(
          1, std::memory_order_relaxed);
      return Status::kPostpone;
    }
    auto* ve = store.device().ptr<ValueEntry>(va.dev);
    ve->next_dev = ke->vhead_dev;
    ve->next_host = ke->vhead_host;
    ve->val_len = val_len;
    ve->pad_ = 0;
    if (val_len) std::memcpy(ve->value_data(), value.data(), val_len);
    ke->vhead_dev = va.dev;
    ke->vhead_host = va.host;
    store.stats().add_value_appends();
    return Status::kSuccess;
  }

  void rebuild_device_chains(BucketChainStore& store) {
    // The device chains contain pointers into pages that were flushed at the
    // end of the previous iteration; reset them and re-link only the entries
    // on resident key pages. Host chains are untouched — they are complete.
    store.clear_device_chains();

    // One kernel over resident pages: each page is walked linearly (entries
    // are contiguous and self-sizing). Scheduled through the context so the
    // rebuild shows up on the compute timeline like any other kernel.
    store.ctx().launch(resident_key_pages_.size(), [&](std::size_t i) {
      const std::uint32_t page = resident_key_pages_[i];
      const auto& meta = store.pool().meta(page);
      const std::uint32_t used = meta.used.load(std::memory_order_relaxed);
      const DevPtr base = store.pool().page_base(page);
      std::uint32_t off = 0;
      while (off < used) {
        const DevPtr ep = base + off;
        auto* ke = store.device().ptr<KeyEntry>(ep);
        // The only hash recomputation left on the insert side: entries do
        // not carry their hash (the paper-fixed layout spends its header
        // bytes on the dual dev/host pointers), so re-linking a resident
        // page must rehash each key once per iteration.
        const std::uint32_t b = store.bucket_of(ke->key());
        ke->vhead_dev = gpusim::kDevNull;  // all value pages were flushed
        gpusim::DeviceLockGuard guard(store.lock(b).lock, store.stats());
        ke->next_dev = store.bucket(b).head_dev.load(std::memory_order_relaxed);
        store.bucket(b).head_dev.store(ep, std::memory_order_release);
        store.stats().add_chain_links();
        off += ke->byte_size();
      }
    });
  }

  // Key pages kept resident across iterations because some of their keys
  // still await values (paper §IV-C).
  std::vector<std::uint32_t> resident_key_pages_;
};

}  // namespace

std::unique_ptr<OrganizationPolicy> make_policy(const HashTableConfig& cfg) {
  switch (cfg.org) {
    case Organization::kBasic:
      return std::make_unique<BasicPolicy>();
    case Organization::kCombining:
      return std::make_unique<CombiningPolicy>();
    case Organization::kMultiValued:
      return std::make_unique<MultiValuedPolicy>();
  }
  return std::make_unique<BasicPolicy>();
}

}  // namespace sepo::core
