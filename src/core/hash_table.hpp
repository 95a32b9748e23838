// The SEPO hash table (paper §IV): closed addressing with separate chaining,
// entries dynamically allocated from the bucket-group allocator, growable
// beyond device memory via the SEPO iteration protocol.
//
// Layered (DESIGN.md §2): SepoHashTable is a thin iteration-protocol facade
// composing a BucketChainStore (bucket_store.hpp — layout, locks, allocator,
// flush mechanism) with an OrganizationPolicy (organization_policy.hpp — the
// Figure-5 per-organization insert/flush/residency rules). The public API is
// unchanged from the pre-layered table.
//
// Device-side operations (insert) are called from kernel code; the iteration
// protocol (begin_iteration / end_iteration / finalize) is called from the
// host between kernel launches, exactly as in Figure 5.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/bucket_store.hpp"
#include "core/entry_layout.hpp"
#include "core/host_table.hpp"
#include "core/organization_policy.hpp"
#include "core/sepo.hpp"
#include "gpusim/exec_context.hpp"

namespace sepo::core {

class SepoHashTable {
 public:
  SepoHashTable(gpusim::ExecContext& ctx, HashTableConfig cfg);

  SepoHashTable(const SepoHashTable&) = delete;
  SepoHashTable& operator=(const SepoHashTable&) = delete;

  [[nodiscard]] const HashTableConfig& config() const noexcept {
    return store_.config();
  }
  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return store_.allocator().num_groups();
  }

  // ------- device-side API (called from kernels) -------

  // Inserts <key, value> according to the configured organization.
  // Returns kPostpone when the required memory could not be allocated;
  // the caller must leave the task unmarked and re-issue it next iteration.
  Status insert(std::string_view key, std::span<const std::byte> value);

  // Convenience for 8-byte values.
  Status insert_u64(std::string_view key, std::uint64_t value) {
    return insert(key, std::as_bytes(std::span{&value, 1}));
  }

  // Device-side lookup over the *resident* chain (current-iteration data).
  // Returns nullptr when the key is not resident. Used by tests and by the
  // SEPO-lookup extension; population-phase apps only insert.
  [[nodiscard]] const KvEntry* find_resident(std::string_view key) const;

  // ------- SEPO iteration protocol (host side, Figure 5) -------

  // Prepares a new iteration: clears postpone flags and pending-key marks,
  // and (multi-valued) rebuilds the device chains from resident key pages.
  void begin_iteration();

  // Basic organization halt condition: true when at least
  // `halt_frac * num_groups` bucket groups are currently postponing.
  [[nodiscard]] bool should_halt(double halt_frac) const noexcept;

  // Ends an iteration: flushes heap pages to the host mirror heap according
  // to the organization's policy (Figure 5) and returns them to the pool.
  void end_iteration();

  // Flushes everything still resident and returns the host-side table view.
  // The hash table must not be used for inserts afterwards.
  HostTable finalize();

  // ------- introspection -------

  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return store_.bucket_load();
  }

  [[nodiscard]] HashTableStats table_stats() const noexcept {
    return store_.table_stats();
  }

  // Histogram of *resident* (device-side) chain lengths: result[n] = number
  // of buckets whose device chain currently holds n entries; the last bin
  // aggregates everything >= its index. Walks every bucket — call between
  // kernels, for telemetry.
  [[nodiscard]] std::vector<std::uint64_t> resident_chain_histogram(
      std::size_t max_len = 16) const;

  [[nodiscard]] std::uint32_t free_pages() const noexcept {
    return store_.pool().free_count();
  }
  // Pages currently seized by an injected memory-pressure spike; 0 without
  // fault injection. Read by the occupancy sampler (SepoDriver).
  [[nodiscard]] std::uint32_t pressure_page_count() const noexcept {
    return static_cast<std::uint32_t>(pressure_pages_.size());
  }
  [[nodiscard]] gpusim::RunStats& run_stats() noexcept { return stats_; }
  [[nodiscard]] alloc::HostHeap& host_heap() noexcept {
    return store_.host_heap();
  }
  [[nodiscard]] alloc::BucketGroupAllocator& allocator() noexcept {
    return store_.allocator();
  }
  [[nodiscard]] alloc::PagePool& page_pool() noexcept { return store_.pool(); }
  [[nodiscard]] const alloc::PagePool& page_pool() const noexcept {
    return store_.pool();
  }

  // The storage layer, exposed for store-level tests and extensions that
  // pair a custom policy with the stock store.
  [[nodiscard]] BucketChainStore& store() noexcept { return store_; }

 private:
  // Fault injection: seizes / returns heap pages to model a device-memory
  // pressure spike (gpusim::FaultInjector). A shrunken pool makes the
  // allocator POSTPONE sooner — degradation through extra SEPO iterations,
  // never wrong answers.
  void apply_pressure();

  gpusim::ExecContext& ctx_;
  gpusim::RunStats& stats_;
  BucketChainStore store_;
  std::unique_ptr<OrganizationPolicy> policy_;

  // Pages seized by an injected memory-pressure spike (not usable by the
  // allocator until the spike passes).
  std::vector<std::uint32_t> pressure_pages_;

  bool finalized_ = false;
};

}  // namespace sepo::core
