// Chained hash table in host memory: the CPU baseline (paper §VI-B) and the
// pinned-memory baseline (§VI-D) are one table with two placements.
//
// §VI-B: "The CPU-based versions use a hash table design similar to our
// GPU-based hash table design except that they do not use the SEPO model of
// computation given that the entire hash table fits in CPU memory." §VI-D:
// "We modified our dynamic memory allocator to pre-allocate its heap as a
// pinned CPU memory region (thus storing the content of the hash table in
// CPU memory). Everything else is kept in GPU memory for higher memory
// performance (e.g. locks)."
//
// Both placements share closed addressing, separate chaining, per-bucket
// locks, the three bucket organizations and one set of native-pointer entry
// layouts. The constructor picks the placement:
//
//   * RunStats& — CPU placement. Entries come from per-thread chunked bump
//     arenas, standing in for TCMalloc's thread-cached fast path (§VI-B:
//     "all CPU implementations that require dynamic memory allocation use
//     TCMalloc"). Nothing touches a device.
//   * ExecContext& — pinned placement. The bucket array and its locks are
//     device-resident (charged with alloc_static); entries live in one
//     shared pinned heap behind a device lock, so every entry read and write
//     is a GPU thread crossing the PCIe bus, one small transaction per
//     access, metered on the bus's remote counters.
//
// No placement ever postpones: host memory is treated as unbounded.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/sepo.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/pcie.hpp"
#include "gpusim/sharded_counters.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::baselines {

struct ChainedHostTableConfig {
  core::Organization org = core::Organization::kCombining;
  std::uint32_t num_buckets = 1u << 15;  // power of two
  core::CombineFn combiner = nullptr;
};

class ChainedHostTable {
 public:
  // CPU placement: per-thread arenas, events recorded into `stats`.
  ChainedHostTable(gpusim::RunStats& stats, ChainedHostTableConfig cfg);
  // Pinned placement: the context's device hosts the bucket array and
  // supplies the bus to meter; remote traffic lands on the context's
  // timeline via the kernels that issue it (ExecContext::launch).
  ChainedHostTable(gpusim::ExecContext& ctx, ChainedHostTableConfig cfg);
  ~ChainedHostTable();

  ChainedHostTable(const ChainedHostTable&) = delete;
  ChainedHostTable& operator=(const ChainedHostTable&) = delete;

  // Inserts from worker thread `tid`, which selects the thread arena in the
  // CPU placement (concurrent callers must pass distinct tids); the pinned
  // heap is shared and ignores it. Always succeeds.
  void insert(std::uint32_t tid, std::string_view key,
              std::span<const std::byte> value);

  void insert_u64(std::uint32_t tid, std::string_view key, std::uint64_t v) {
    insert(tid, key, std::as_bytes(std::span{&v, 1}));
  }

  // --- queries (single-threaded, after population; never metered: the
  // data already lives in host memory) ---
  [[nodiscard]] std::optional<std::span<const std::byte>> lookup(
      std::string_view key) const;
  [[nodiscard]] std::vector<std::span<const std::byte>> lookup_all(
      std::string_view key) const;
  [[nodiscard]] std::optional<std::vector<std::span<const std::byte>>>
  lookup_group(std::string_view key) const;

  void for_each(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;
  void for_each_group(
      const std::function<void(std::string_view,
                               const std::vector<std::span<const std::byte>>&)>&
          fn) const;

  // Exact when no insert is in flight.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return tallies_.sum(kEntries);
  }
  [[nodiscard]] std::size_t value_count() const noexcept {
    return tallies_.sum(kValues);
  }
  // Total bytes handed out by the heap (table memory footprint).
  [[nodiscard]] std::size_t allocated_bytes() const noexcept;

  // Per-bucket access totals for the cost model's serialization term.
  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return gpusim::bucket_load(locks_);
  }

 private:
  struct KvEntry;
  struct KeyEntry;
  struct ValueEntry;

  // Chunked bump allocator. An entry larger than a chunk gets its own
  // exact-size chunk and leaves the current bump chunk in place.
  struct Arena {
    std::vector<std::unique_ptr<std::byte[]>> chunks;
    std::byte* cursor = nullptr;
    std::size_t left = 0;
    std::size_t used = 0;
    void* bump(std::size_t bytes, std::size_t chunk_bytes);
  };

  ChainedHostTable(gpusim::RunStats& stats, ChainedHostTableConfig cfg,
                   gpusim::PcieBus* bus);

  void* alloc(std::uint32_t tid, std::size_t bytes);
  // Meters one remote transaction in the pinned placement; free on the CPU.
  void remote(std::size_t bytes) const noexcept {
    if (bus_ != nullptr) bus_->remote(bytes);
  }

  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const noexcept;
  // Walks bucket `b`'s chain (caller holds its lock), counting every link
  // and compared key byte and metering each remote header + key read.
  template <typename Entry>
  Entry* find(std::uint32_t b, std::string_view key);
  // Allocates and fills a key/value entry, metering its remote write.
  KvEntry* new_kv(std::uint32_t tid, std::string_view key,
                  std::span<const std::byte> value);
  // Prepends a new entry to bucket `b`'s chain (caller holds its lock).
  template <typename Entry>
  void push(std::uint32_t b, Entry* e);

  void insert_basic(std::uint32_t tid, std::uint32_t b, std::string_view key,
                    std::span<const std::byte> value);
  void insert_combining(std::uint32_t tid, std::uint32_t b,
                        std::string_view key,
                        std::span<const std::byte> value);
  void insert_multivalued(std::uint32_t tid, std::uint32_t b,
                          std::string_view key,
                          std::span<const std::byte> value);

  gpusim::RunStats& stats_;
  ChainedHostTableConfig cfg_;
  gpusim::PcieBus* bus_;  // null in the CPU placement
  std::uint32_t bucket_mask_;
  std::vector<std::atomic<void*>> heads_;
  // Lock + access tally per bucket on private cache lines
  // (gpusim::PaddedBucketLock); accesses incremented under the bucket lock.
  std::vector<gpusim::PaddedBucketLock> locks_;
  // CPU: one arena per thread slot. Pinned: one arena behind heap_lock_.
  std::vector<Arena> arenas_;
  gpusim::DeviceLock heap_lock_;
  // Chain entries pushed and multi-valued values appended, counted per
  // worker like RunStats.
  enum Tally : std::size_t { kEntries, kValues, kNumTallies };
  gpusim::ShardedCounters<kNumTallies> tallies_;
};

// Emitter into a ChainedHostTable from worker thread `tid` (never
// postpones).
class ChainedHostEmitter final : public mapreduce::Emitter {
 public:
  ChainedHostEmitter(ChainedHostTable& table, std::uint32_t tid) noexcept
      : table_(table), tid_(tid) {}

  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    table_.insert(tid_, key, value);
    return core::Status::kSuccess;
  }

 private:
  ChainedHostTable& table_;
  std::uint32_t tid_;
};

}  // namespace sepo::baselines
