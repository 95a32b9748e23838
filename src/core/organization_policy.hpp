// Organization policy layer of the SEPO hash table (DESIGN.md §2).
//
// One policy object per table encapsulates every Organization-dependent
// decision from Figure 5: how an insert lays out entries in the store, what
// happens at iteration boundaries (which pages flush, which stay resident),
// and what remains to flush at finalize. The BucketChainStore supplies the
// mechanism (buckets, locks, allocator, flush); the policy supplies the
// Figure-5 rules. Adding a future organization (e.g. a compact bucketed
// layout) is a new policy + store pairing, not a rewrite of the table.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/bucket_store.hpp"
#include "core/sepo.hpp"

namespace sepo::core {

class OrganizationPolicy {
 public:
  virtual ~OrganizationPolicy() = default;

  // Inserts <key, value> into bucket `b`. Returns kPostpone when the
  // required memory could not be allocated. Takes the bucket lock itself.
  virtual Status insert(BucketChainStore& store, std::uint32_t b,
                        std::string_view key,
                        std::span<const std::byte> value) = 0;

  // Called at the start of each SEPO iteration, after postpone flags are
  // reset. Default: nothing to prepare. Multi-valued rebuilds the device
  // chains from resident key pages.
  virtual void begin_iteration(BucketChainStore& store);

  // Figure-5 flush rule: appends to `to_flush` the pages that leave the
  // device at this iteration's end (and resets device chains accordingly).
  // Default (Basic/Combining, Figure 5 (a)/(c)): everything flushes.
  virtual void collect_end_of_iteration(BucketChainStore& store,
                                        std::vector<std::uint32_t>& to_flush);

  // Appends every page still owned by the table at finalize. Default:
  // detach + retire everything; multi-valued adds its resident key pages.
  virtual void collect_final(BucketChainStore& store,
                             std::vector<std::uint32_t>& to_flush);

  // Follows the device chain link of the entry at `p` — entry layout is an
  // organization decision (KvEntry vs KeyEntry). Used by telemetry walks.
  [[nodiscard]] virtual DevPtr chain_next(const gpusim::Device& dev,
                                          DevPtr p) const;
};

// Builds the policy matching cfg.org.
[[nodiscard]] std::unique_ptr<OrganizationPolicy> make_policy(
    const HashTableConfig& cfg);

}  // namespace sepo::core
