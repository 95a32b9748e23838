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
// Cost profile relative to the §VI-D pinned table: inserts touch CPU memory
// exactly once (the data store) because the device-resident fingerprint
// index absorbs the probe; lookups touch CPU memory only on fingerprint
// matches (true matches + rare 16-bit collisions).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/entry_layout.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/sharded_counters.hpp"

namespace sepo::baselines {

struct StadiumConfig {
  std::uint32_t num_buckets = 1u << 15;  // power of two
  std::size_t host_chunk_bytes = 1u << 20;
};

class StadiumHashTable {
 public:
  // The fingerprint index grows in device memory (2 bytes per stored pair,
  // chained in small device-resident blocks); entries live in host memory.
  explicit StadiumHashTable(gpusim::ExecContext& ctx, StadiumConfig cfg = {});

  // Device-side insert: consults/extends the device index, then performs
  // exactly one remote write for the entry. Throws std::bad_alloc when the
  // device can no longer hold the index.
  void insert(std::string_view key, std::span<const std::byte> value);

  void insert_u64(std::string_view key, std::uint64_t v) {
    insert(key, std::as_bytes(std::span{&v, 1}));
  }

  // Device-side lookup: scans device fingerprints; remote-reads only
  // fingerprint matches. Returns all values stored under `key` (duplicates
  // are separate pairs, per the §VII critique).
  [[nodiscard]] std::vector<std::span<const std::byte>> lookup_all(
      std::string_view key);

  // Host-side iteration over the final content (no bus cost).
  void for_each(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;

  // Exact when no insert is in flight.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entry_count_.sum(0);
  }
  // Device memory consumed by the fingerprint index.
  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return index_blocks_used_.load(std::memory_order_relaxed) * kBlockBytes;
  }

  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return gpusim::bucket_load(locks_);
  }

 private:
  // Device-resident fingerprint block: 14 tokens + a chain link, 32 bytes.
  static constexpr std::uint32_t kTokensPerBlock = 14;
  static constexpr std::size_t kBlockBytes = 40;
  struct FpBlock {
    gpusim::DevPtr next;
    std::uint16_t fp[kTokensPerBlock];
    std::uint16_t count;
    std::uint16_t pad_[1];
  };
  static_assert(sizeof(FpBlock) <= kBlockBytes);

  struct HostEntry {
    HostEntry* next;
    std::uint32_t key_len, val_len;
    [[nodiscard]] const char* key_data() const noexcept {
      return reinterpret_cast<const char*>(this + 1);
    }
    [[nodiscard]] char* key_data() noexcept {
      return reinterpret_cast<char*>(this + 1);
    }
    [[nodiscard]] std::string_view key() const noexcept {
      return {key_data(), key_len};
    }
    [[nodiscard]] const std::byte* value_data() const noexcept {
      return reinterpret_cast<const std::byte*>(this + 1) +
             core::pad8(key_len);
    }
    [[nodiscard]] std::byte* value_data() noexcept {
      return reinterpret_cast<std::byte*>(this + 1) + core::pad8(key_len);
    }
  };

  [[nodiscard]] static std::uint16_t fingerprint(std::uint64_t hash) noexcept {
    return static_cast<std::uint16_t>(hash >> 32) | 1u;  // never 0
  }

  void* host_alloc(std::size_t bytes);
  gpusim::DevPtr new_block();

  gpusim::Device& dev_;
  gpusim::RunStats& stats_;
  StadiumConfig cfg_;
  std::uint32_t bucket_mask_;

  // Device-resident per-bucket index heads + host-resident entry heads.
  std::vector<std::atomic<gpusim::DevPtr>> index_heads_;
  std::vector<std::atomic<HostEntry*>> entry_heads_;  // pinned CPU memory
  // Lock + access tally per bucket on private cache lines
  // (gpusim::PaddedBucketLock); accesses incremented under the bucket lock.
  std::vector<gpusim::PaddedBucketLock> locks_;

  gpusim::DeviceLock host_lock_;
  std::vector<std::unique_ptr<std::byte[]>> host_chunks_;
  std::size_t used_in_chunk_ = 0;
  gpusim::ShardedCounters<1> entry_count_;  // counted per worker
  std::atomic<std::size_t> index_blocks_used_{0};
};

}  // namespace sepo::baselines
