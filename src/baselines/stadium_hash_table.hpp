// Stadium-hashing-style baseline (paper §VII; Khorasani et al., PACT'15).
//
// "Stadium hashing proposes a hash table design where the hash table itself
// is located in a pinned portion of CPU memory, where it is directly
// accessed by GPU threads. To reduce the number of accesses to CPU memory,
// a compact indexing data structure located in GPU memory is used to store
// a fingerprint hash token for each item...: on an insert, the GPU thread
// first uses the index data structure to find an empty bucket, and only
// then will it access CPU memory to store the data item."
//
// And the paper's critique, which this model preserves: "neither Stadium
// hashing nor Mega-KV handle key-value pairs with duplicate keys... They
// both store pairs with duplicate keys as if they are pairs with different
// keys" — so inserts here always append (basic semantics), regardless of
// application-level duplicates; grouping/combining would need a separate
// post-pass.
//
// The data store is the pinned, basic-organization ChainedHostTable (entries,
// heap, chain heads, bucket locks); this class adds only the device-resident
// fingerprint index in front of it. Cost profile relative to the §VI-D
// pinned table: inserts touch CPU memory exactly once (the data store)
// because the index absorbs the probe; lookups touch CPU memory only on
// fingerprint matches (true matches + rare 16-bit collisions).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/chained_host_table.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"

namespace sepo::baselines {

struct StadiumConfig {
  std::uint32_t num_buckets = 1u << 15;  // power of two
};

class StadiumHashTable {
 public:
  // The fingerprint index grows in device memory (2 bytes per stored pair,
  // chained in small device-resident blocks); entries live in host memory.
  explicit StadiumHashTable(gpusim::ExecContext& ctx, StadiumConfig cfg = {});

  // Device-side insert: extends the device index, then performs exactly one
  // remote write for the entry. Throws std::bad_alloc when the device can no
  // longer hold the index.
  void insert(std::string_view key, std::span<const std::byte> value);

  void insert_u64(std::string_view key, std::uint64_t v) {
    insert(key, std::as_bytes(std::span{&v, 1}));
  }

  // Device-side lookup: scans device fingerprints; remote-reads only
  // fingerprint matches. Returns all values stored under `key` (duplicates
  // are separate pairs, per the §VII critique).
  [[nodiscard]] std::vector<std::span<const std::byte>> lookup_all(
      std::string_view key);

  // The pinned data store: host-side iteration (no bus cost), entry count,
  // bucket load.
  [[nodiscard]] const ChainedHostTable& table() const noexcept {
    return table_;
  }
  // Device memory consumed by the fingerprint index.
  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return index_blocks_used_.load(std::memory_order_relaxed) * kBlockBytes;
  }

 private:
  // Device-resident fingerprint block: 14 tokens + a chain link, 40 bytes.
  static constexpr std::uint32_t kTokensPerBlock = 14;
  static constexpr std::size_t kBlockBytes = 40;
  struct FpBlock {
    gpusim::DevPtr next;
    std::uint16_t fp[kTokensPerBlock];
    std::uint16_t count;
    std::uint16_t pad_[1];
  };
  static_assert(sizeof(FpBlock) <= kBlockBytes);

  // Records a fingerprint at the head of bucket `b`'s index (caller holds
  // the bucket lock).
  void push_fingerprint(std::uint32_t b, std::uint16_t fp);

  gpusim::Device& dev_;
  gpusim::RunStats& stats_;
  ChainedHostTable table_;  // pinned CPU memory
  std::vector<std::atomic<gpusim::DevPtr>> index_heads_;  // device-resident
  std::atomic<std::size_t> index_blocks_used_{0};
};

}  // namespace sepo::baselines
