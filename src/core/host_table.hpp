// Host-side view of a finalized SEPO hash table.
//
// After the SEPO driver completes, every heap page has been flushed to the
// host mirror heap and the bucket heads' *host* pointers form complete
// chains (paper §III-B: the dual-pointer scheme makes the table "eventually
// accessible from both CPU and GPU sides"). This class walks those chains.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "alloc/host_heap.hpp"
#include "core/entry_layout.hpp"
#include "gpusim/thread_pool.hpp"

namespace sepo::core {

// The parallel bucket walks of both host-side chained tables (this file's
// HostTable, the baselines' ChainedHostTable) and of the Phoenix merge split
// buckets [0, n) into ranges of kRangeBuckets and run one range per pool
// task (parallel_for directly: no kernel, no simulated cost). A walk that
// keeps every bucket's work inside its range touches no state another range
// touches, so its result is the same bit for bit at any worker count.
inline constexpr std::size_t kRangeBuckets = 256;

[[nodiscard]] inline std::size_t bucket_range_count(std::size_t n) noexcept {
  return (n + kRangeBuckets - 1) / kRangeBuckets;
}

// Runs body(range, lo, hi) on `pool` for every bucket range [lo, hi) of
// buckets [0, n).
template <typename Body>
void for_each_bucket_range(gpusim::ThreadPool& pool, std::size_t n,
                           const Body& body) {
  pool.parallel_for(bucket_range_count(n), [&](std::size_t r) {
    body(r, r * kRangeBuckets, std::min(n, (r + 1) * kRangeBuckets));
  });
}

// Sums range_sum(lo, hi) over every bucket range of [0, n), one partial per
// range. uint64 addition wraps mod 2^64, so the total does not depend on the
// order in which ranges finish.
template <typename RangeSum>
[[nodiscard]] std::uint64_t sum_bucket_ranges(gpusim::ThreadPool& pool,
                                              std::size_t n,
                                              const RangeSum& range_sum) {
  std::vector<std::uint64_t> partial(bucket_range_count(n), 0);
  for_each_bucket_range(
      pool, n, [&](std::size_t r, std::size_t lo, std::size_t hi) {
        partial[r] = range_sum(lo, hi);
      });
  std::uint64_t total = 0;
  for (const std::uint64_t s : partial) total += s;
  return total;
}

// NOTE on duplicate key entries: a key can be represented by several
// entries when SEPO iterations interleave with multi-emission records (a
// record postponed on an early emission re-emits a key whose entry was
// already flushed) or when the multi-valued resident-key cap fires. All
// duplicates of a key land in the same bucket chain, so construction runs a
// one-time chain-local canonicalization pass: duplicates are folded into the
// first entry (with the combiner for the combining organization, by value-
// list concatenation for the multi-valued one) and unlinked from the host
// chain. Reads afterwards see unique keys.
//
// Construction is one walk over the bucket ranges (for_each_bucket_range).
// Each range canonicalizes its chains and records their lengths, so the
// counts and the occupancy histogram never walk the chains again. The walk
// and the sum_entries/sum_groups reductions run their ranges on `pool`.
// Chains never cross ranges, so the result is the same bit for bit at any
// worker count.
//
// SepoHashTable::finalize is the only producer: `combiner` is the table's
// own, non-null for the combining organization.
class HostTable {
 public:
  HostTable(Organization org, std::vector<HostPtr> bucket_heads,
            alloc::HostHeap& heap, CombineFn combiner,
            gpusim::ThreadPool& pool);

  [[nodiscard]] Organization organization() const noexcept { return org_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return heads_.size();
  }

  // --- basic / combining ---

  // First entry with `key` (the only one under combining). Value bytes.
  [[nodiscard]] std::optional<std::span<const std::byte>> lookup(
      std::string_view key) const;

  // Typed convenience for 8-byte values.
  [[nodiscard]] std::optional<std::uint64_t> lookup_u64(
      std::string_view key) const;

  // All entries with `key` (basic organization keeps duplicates).
  [[nodiscard]] std::vector<std::span<const std::byte>> lookup_all(
      std::string_view key) const;

  // Visits every entry: fn(key, value_bytes).
  void for_each(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;

  // Sums term(key, value_bytes) over every entry, one partial per bucket
  // range (sum_bucket_ranges). `term` runs concurrently on the pool.
  template <typename Term>
  [[nodiscard]] std::uint64_t sum_entries(const Term& term) const {
    const auto range_sum = [&](std::size_t lo, std::size_t hi) {
      std::uint64_t sum = 0;
      for (std::size_t b = lo; b < hi; ++b)
        for (HostPtr p = heads_[b]; p != alloc::kHostNull;) {
          const auto* e = heap_.ptr<KvEntry>(p);
          sum += term(e->key(), std::span{e->value_data(), e->val_len});
          p = e->next_host;
        }
      return sum;
    };
    return sum_bucket_ranges(pool_, heads_.size(), range_sum);
  }

  // --- multi-valued ---

  // Visits every key group: fn(key, values); `values` in insertion-reverse
  // order (lists are built by prepending).
  void for_each_group(
      const std::function<void(std::string_view,
                               const std::vector<std::span<const std::byte>>&)>&
          fn) const;

  // sum_entries for key groups: sums term(key, values) over every group.
  template <typename Term>
  [[nodiscard]] std::uint64_t sum_groups(const Term& term) const {
    const auto range_sum = [&](std::size_t lo, std::size_t hi) {
      std::vector<std::span<const std::byte>> vals;
      std::uint64_t sum = 0;
      for (std::size_t b = lo; b < hi; ++b)
        for (HostPtr p = heads_[b]; p != alloc::kHostNull;) {
          const auto* ke = heap_.ptr<KeyEntry>(p);
          values_of(*ke, vals);
          sum += term(ke->key(), vals);
          p = ke->next_host;
        }
      return sum;
    };
    return sum_bucket_ranges(pool_, heads_.size(), range_sum);
  }

  // Values of one key, or nullopt when absent.
  [[nodiscard]] std::optional<std::vector<std::span<const std::byte>>>
  lookup_group(std::string_view key) const;

  // --- counting (recorded at construction) ---

  // Distinct keys (duplicates were merged at construction); for kBasic,
  // total entries.
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_; }
  // Multi-valued: total values; otherwise entry_count().
  [[nodiscard]] std::size_t value_count() const noexcept { return values_; }

  // Number of duplicate entries folded away at construction (diagnostics).
  [[nodiscard]] std::size_t merged_duplicates() const noexcept {
    return merged_duplicates_;
  }

  // Bucket-occupancy histogram over the finalized chains: result[n] = number
  // of buckets holding n entries, with the last bin aggregating chain
  // lengths >= max_len. Telemetry: exported in the metrics JSON so load
  // distribution (and hence probe cost) is visible across runs.
  [[nodiscard]] std::vector<std::uint64_t> occupancy_histogram(
      std::size_t max_len = 16) const;

  // --- low-level access for phase-2 engines (e.g. core::SepoLookupEngine),
  // which re-stage bucket chains into device memory ---
  [[nodiscard]] HostPtr bucket_head(std::size_t b) const noexcept {
    return heads_[b];
  }
  [[nodiscard]] const alloc::HostHeap& heap() const noexcept { return heap_; }

  // Bucket mapping, public so phase-2 engines share the table's own hash →
  // bucket function instead of re-deriving it. The memoized overload takes
  // a precomputed hash_key(key) value.
  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::uint32_t>(hash) &
           static_cast<std::uint32_t>(heads_.size() - 1);
  }
  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const noexcept;

 private:
  // Key entries already kept in the chain being canonicalized, with the
  // tail of each one's value list (multi-valued) so a duplicate's list is
  // appended without re-walking.
  struct Kept {
    std::string_view key;
    HostPtr entry;
    HostPtr value_tail;
  };
  struct RangeCounts {
    std::size_t entries = 0;
    std::size_t values = 0;
    std::size_t merged = 0;
  };

  // Canonicalizes the chain at `head` and returns its length afterwards.
  std::uint32_t canonicalize_chain(HostPtr& head, std::vector<Kept>& kept,
                                   RangeCounts& counts);
  // Appends `ke`'s value list to `vals` (cleared first).
  void values_of(const KeyEntry& ke,
                 std::vector<std::span<const std::byte>>& vals) const;

  Organization org_;
  std::vector<HostPtr> heads_;
  alloc::HostHeap& heap_;
  CombineFn combiner_;
  gpusim::ThreadPool& pool_;
  std::vector<std::uint32_t> chain_len_;  // per bucket, after the merge
  std::size_t entries_ = 0;
  std::size_t values_ = 0;
  std::size_t merged_duplicates_ = 0;
};

}  // namespace sepo::core
