// Chained hash table of the baselines: the CPU baseline (paper §VI-B),
// MapCG (§VI-C), the pinned-memory baseline (§VI-D) and the data store
// behind Stadium's device index (§VII) are one table with three placements.
//
// §VI-B: "The CPU-based versions use a hash table design similar to our
// GPU-based hash table design except that they do not use the SEPO model of
// computation given that the entire hash table fits in CPU memory." §VI-D:
// "We modified our dynamic memory allocator to pre-allocate its heap as a
// pinned CPU memory region (thus storing the content of the hash table in
// CPU memory). Everything else is kept in GPU memory for higher memory
// performance (e.g. locks)."
//
// Every placement shares closed addressing, separate chaining, per-bucket
// locks, the three bucket organizations and one set of native-pointer entry
// layouts. Each bucket is one core::ProbeLine, the probe line of the SEPO
// table (DESIGN.md §5a): its lock, access tally, chain length and newest
// chain entries, tagged, on one host cache line. An insert takes the lock
// and probes the line with core::probe, which dereferences only entries
// whose tag and length match the key, yet charges the walk of every link
// (chain_links_walked, key_compare_bytes and, pinned, one remote header +
// key read per link), so the counters are those of a plain chain walk. The
// constructor picks the placement:
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
//   * ExecContext& + EntryMemory::kDevice — device placement (MapCG). Bucket
//     array and locks as in the pinned placement; entries come from one
//     device region that carve_device_heap() claims once the caller has
//     staged its input. Each allocation is one fetch_add on a single shared
//     offset — a priced serial atomic, the serialization the bucket-group
//     allocator of §IV-A avoids. No bus traffic: entries are device-resident.
//
// Host memory is treated as unbounded, so the CPU and pinned placements
// never postpone; a full device heap makes insert return kPostpone.
//
// The two steps the MapReduce baselines add around the table are free
// functions at the end of this header: Phoenix++'s merge of per-thread
// tables (merge_tables) and MapCG's reduce pass (reduce_values).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/hashing.hpp"
#include "core/entry_layout.hpp"
#include "core/host_table.hpp"
#include "core/probe_line.hpp"
#include "core/sepo.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/pcie.hpp"
#include "gpusim/sharded_counters.hpp"
#include "gpusim/thread_pool.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::baselines {

struct ChainedHostTableConfig {
  core::Organization org = core::Organization::kCombining;
  std::uint32_t num_buckets = 1u << 15;  // power of two
  core::CombineFn combiner = nullptr;
};

// Where a device-backed table keeps its entries.
enum class EntryMemory { kPinnedHost, kDevice };

class ChainedHostTable {
 public:
  // Entry layouts: native pointers within the heap, payload after the
  // header, each field 8-byte padded.
  struct KvEntry {  // basic / combining
    KvEntry* next;
    std::uint32_t key_len, val_len;
    [[nodiscard]] char* key_data() noexcept {
      return reinterpret_cast<char*>(this + 1);
    }
    [[nodiscard]] const char* key_data() const noexcept {
      return reinterpret_cast<const char*>(this + 1);
    }
    [[nodiscard]] std::string_view key() const noexcept {
      return {key_data(), key_len};
    }
    [[nodiscard]] std::byte* value_data() noexcept {
      return reinterpret_cast<std::byte*>(this + 1) + core::pad8(key_len);
    }
    [[nodiscard]] const std::byte* value_data() const noexcept {
      return reinterpret_cast<const std::byte*>(this + 1) +
             core::pad8(key_len);
    }
  };

  struct ValueEntry {
    ValueEntry* next;
    std::uint32_t val_len, pad_;
    [[nodiscard]] std::byte* value_data() noexcept {
      return reinterpret_cast<std::byte*>(this + 1);
    }
    [[nodiscard]] const std::byte* value_data() const noexcept {
      return reinterpret_cast<const std::byte*>(this + 1);
    }
  };

  struct KeyEntry {  // multi-valued; vhead is the newest value
    KeyEntry* next;
    ValueEntry* vhead;
    std::uint32_t key_len, pad_;
    [[nodiscard]] char* key_data() noexcept {
      return reinterpret_cast<char*>(this + 1);
    }
    [[nodiscard]] const char* key_data() const noexcept {
      return reinterpret_cast<const char*>(this + 1);
    }
    [[nodiscard]] std::string_view key() const noexcept {
      return {key_data(), key_len};
    }
  };

  // The default under-lock hook of insert: does nothing.
  struct NoHook {
    void operator()(std::uint32_t, std::uint64_t) const noexcept {}
  };

  // CPU placement: per-thread arenas, events recorded into `stats`.
  ChainedHostTable(gpusim::RunStats& stats, ChainedHostTableConfig cfg);
  // Pinned or device placement: the context's device hosts the bucket array
  // and supplies the bus to meter (pinned) or the entry heap (device);
  // remote traffic lands on the context's timeline via the kernels that
  // issue it (ExecContext::launch).
  ChainedHostTable(gpusim::ExecContext& ctx, ChainedHostTableConfig cfg,
                   EntryMemory entries = EntryMemory::kPinnedHost);
  ~ChainedHostTable();

  ChainedHostTable(const ChainedHostTable&) = delete;
  ChainedHostTable& operator=(const ChainedHostTable&) = delete;

  // Device placement: claims all remaining free device memory as the entry
  // heap. Call once, before the first insert.
  void carve_device_heap();

  // Inserts from worker thread `tid`, which selects the thread arena in the
  // CPU placement (concurrent callers must pass distinct tids); the pinned
  // and device heaps are shared and ignore it. `under_lock(bucket, hash)`
  // runs under the bucket's lock right before the chain is touched, so a
  // front index kept beside the chain (Stadium's) stays in chain order.
  // Returns kPostpone when the device heap is full, else kSuccess.
  template <typename UnderLock = NoHook>
  core::Status insert(std::uint32_t tid, std::string_view key,
                      std::span<const std::byte> value,
                      UnderLock&& under_lock = {}) {
    stats_.add_hash_ops();
    const std::uint64_t h = hash_key(key);
    const std::uint32_t b = bucket_of(h);
    const std::uint8_t tag = core::probe_tag(h);
    if (cfg_.org == core::Organization::kBasic) {
      // Basic never probes: the entry is built before the lock is taken.
      KvEntry* e = new_kv(tid, key, value);
      if (e == nullptr) return core::Status::kPostpone;
      with_bucket(b, [&] {
        under_lock(b, h);
        push(b, e, tag);
      });
      return core::Status::kSuccess;
    }
    return with_bucket(b, [&] {
      under_lock(b, h);
      return cfg_.org == core::Organization::kCombining
                 ? insert_combining(tid, b, tag, key, value)
                 : insert_multivalued(tid, b, tag, key, value);
    });
  }

  core::Status insert_u64(std::uint32_t tid, std::string_view key,
                          std::uint64_t v) {
    return insert(tid, key, std::as_bytes(std::span{&v, 1}));
  }

  // Runs fn() under bucket `b`'s lock, tallying one access for the cost
  // model's serialization term.
  template <typename Fn>
  decltype(auto) with_bucket(std::uint32_t b, Fn&& fn) {
    core::ProbeLine& line = lines_[b];
    gpusim::DeviceLockGuard guard(line.lock, stats_);
    ++line.accesses;
    return fn();
  }

  [[nodiscard]] core::Organization organization() const noexcept {
    return cfg_.org;
  }
  [[nodiscard]] std::uint32_t num_buckets() const noexcept {
    return bucket_mask_ + 1;
  }
  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::uint32_t>(hash) & bucket_mask_;
  }
  // Head of bucket `b`'s chain as the organization's entry type (KvEntry or
  // KeyEntry), read from slot 0 of its probe line; newest first. Caller
  // holds the bucket lock, or no insert is in flight.
  template <typename Entry>
  [[nodiscard]] Entry* chain(std::uint32_t b) noexcept {
    return reinterpret_cast<Entry*>(lines_[b].head());
  }
  template <typename Entry>
  [[nodiscard]] const Entry* chain(std::uint32_t b) const noexcept {
    return reinterpret_cast<const Entry*>(lines_[b].head());
  }

  // --- queries (single-threaded, after population; never metered: the
  // data already lives in host memory) ---
  [[nodiscard]] std::optional<std::span<const std::byte>> lookup(
      std::string_view key) const;
  [[nodiscard]] std::vector<std::span<const std::byte>> lookup_all(
      std::string_view key) const;
  [[nodiscard]] std::optional<std::vector<std::span<const std::byte>>>
  lookup_group(std::string_view key) const;

  // Visits bucket `b`'s entries, newest first: fn(key, value_bytes).
  template <typename Fn>
  void for_each_in(std::uint32_t b, const Fn& fn) const {
    for (const auto* e = chain<KvEntry>(b); e != nullptr; e = e->next)
      fn(e->key(), std::span{e->value_data(), e->val_len});
  }
  // Visits bucket `b`'s key groups, newest first: fn(key, vals), the key's
  // values newest first, gathered into the caller's scratch `vals`.
  template <typename Fn>
  void for_each_group_in(std::uint32_t b,
                         std::vector<std::span<const std::byte>>& vals,
                         const Fn& fn) const {
    for (const auto* e = chain<KeyEntry>(b); e != nullptr; e = e->next) {
      vals.clear();
      for (const auto* v = e->vhead; v != nullptr; v = v->next)
        vals.emplace_back(v->value_data(), v->val_len);
      fn(e->key(), vals);
    }
  }

  // for_each_in / for_each_group_in over every bucket, in bucket order.
  void for_each(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;
  void for_each_group(
      const std::function<void(std::string_view,
                               const std::vector<std::span<const std::byte>>&)>&
          fn) const;

  // Sums term(key, value_bytes) over every entry (basic, combining), or
  // term(key, values) over every key group (multi-valued), one partial per
  // bucket range on `pool` (core::sum_bucket_ranges); `term` runs
  // concurrently. The wrapping sum is the same at any worker count.
  template <typename Term>
  [[nodiscard]] std::uint64_t sum_entries(const Term& term,
                                          gpusim::ThreadPool& pool) const {
    const auto range_sum = [&](std::size_t lo, std::size_t hi) {
      std::uint64_t sum = 0;
      for (auto b = static_cast<std::uint32_t>(lo); b < hi; ++b)
        for_each_in(b, [&](std::string_view k, std::span<const std::byte> v) {
          sum += term(k, v);
        });
      return sum;
    };
    return core::sum_bucket_ranges(pool, num_buckets(), range_sum);
  }
  template <typename Term>
  [[nodiscard]] std::uint64_t sum_groups(const Term& term,
                                         gpusim::ThreadPool& pool) const {
    const auto range_sum = [&](std::size_t lo, std::size_t hi) {
      std::vector<std::span<const std::byte>> vals;
      std::uint64_t sum = 0;
      for (auto b = static_cast<std::uint32_t>(lo); b < hi; ++b)
        for_each_group_in(b, vals, [&](std::string_view k, const auto& vs) {
          sum += term(k, vs);
        });
      return sum;
    };
    return core::sum_bucket_ranges(pool, num_buckets(), range_sum);
  }

  // Exact when no insert is in flight.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return tallies_.sum(kEntries);
  }
  [[nodiscard]] std::size_t value_count() const noexcept {
    return tallies_.sum(kValues);
  }
  // Operations on the device heap's single shared offset, for the cost
  // model's serial-atomic term; zero in the host placements.
  [[nodiscard]] std::uint64_t serial_atomic_ops() const noexcept {
    return tallies_.sum(kSerialAtomicOps);
  }
  // Total bytes handed out by the heap (table memory footprint).
  [[nodiscard]] std::size_t allocated_bytes() const noexcept;

  // Per-bucket access totals for the cost model's serialization term; call
  // when the table is quiescent.
  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept;

 private:
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
                   gpusim::PcieBus* bus, gpusim::Device* dev);

  // Returns null only when the device heap is full.
  void* alloc(std::uint32_t tid, std::size_t bytes);
  // Meters `txns` remote transactions of `bytes` in all in the pinned
  // placement; free elsewhere.
  void remote(std::uint64_t bytes, std::uint64_t txns = 1) const noexcept {
    if (bus_ != nullptr) bus_->remote(bytes, txns);
  }

  // Probes bucket `b`'s line for `key` (caller holds its lock) and charges
  // the plain chain walk once: every link and compared key byte, and in the
  // pinned placement one remote header + key read per link.
  template <typename Entry>
  Entry* find(std::uint32_t b, std::uint8_t tag, std::string_view key);
  // Allocates and fills a key/value entry, metering its remote write; null
  // when the device heap is full.
  KvEntry* new_kv(std::uint32_t tid, std::string_view key,
                  std::span<const std::byte> value);
  // Prepends a new entry to bucket `b`'s chain (caller holds its lock).
  template <typename Entry>
  void push(std::uint32_t b, Entry* e, std::uint8_t tag) {
    core::ProbeLine& line = lines_[b];
    e->next = reinterpret_cast<Entry*>(line.head());
    line.push(reinterpret_cast<std::uintptr_t>(e), e->key_len, tag);
    tallies_.add(kEntries, 1);
    stats_.add_inserts_new();
  }

  // Caller holds bucket `b`'s lock.
  core::Status insert_combining(std::uint32_t tid, std::uint32_t b,
                                std::uint8_t tag, std::string_view key,
                                std::span<const std::byte> value);
  core::Status insert_multivalued(std::uint32_t tid, std::uint32_t b,
                                  std::uint8_t tag, std::string_view key,
                                  std::span<const std::byte> value);

  gpusim::RunStats& stats_;
  ChainedHostTableConfig cfg_;
  gpusim::PcieBus* bus_;   // pinned placement only
  gpusim::Device* dev_;    // device placement only
  std::uint32_t bucket_mask_;
  // One probe line per bucket (core::ProbeLine): its lock, access tally,
  // chain length and newest chain slots; slot 0 is the chain head.
  std::vector<core::ProbeLine> lines_;
  // CPU: one arena per thread slot. Pinned: one arena behind heap_lock_.
  // Device: none.
  std::vector<Arena> arenas_;
  gpusim::DeviceLock heap_lock_;
  // Device heap: the modelled bump allocator, one shared atomic offset on
  // purpose.
  std::byte* device_heap_ = nullptr;
  std::size_t device_heap_bytes_ = 0;
  std::atomic<std::uint64_t> device_heap_used_{0};
  // Chain entries pushed, multi-valued values appended and device-heap
  // offset operations, counted per worker like RunStats (counting the
  // priced serial atomics must not add a second shared atomic).
  enum Tally : std::size_t {
    kEntries,
    kValues,
    kSerialAtomicOps,
    kNumTallies
  };
  gpusim::ShardedCounters<kNumTallies> tallies_;
};

// Emitter into a ChainedHostTable from worker thread `tid`. Once the table
// refuses an emit (a full device arena) it refuses the rest without touching
// the table, so the map function stops there (mapreduce::Emitter).
class ChainedHostEmitter final : public mapreduce::Emitter {
 public:
  ChainedHostEmitter(ChainedHostTable& table, std::uint32_t tid) noexcept
      : table_(table), tid_(tid) {}

  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    if (failed_ || table_.insert(tid_, key, value) == core::Status::kPostpone) {
      failed_ = true;
      return core::Status::kPostpone;
    }
    return core::Status::kSuccess;
  }

  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  ChainedHostTable& table_;
  std::uint32_t tid_;
  bool failed_ = false;
};

// Phoenix++'s merge phase (§VI-B, [12]): folds the per-thread tables `locals`
// (one organization, equal power-of-two bucket counts) into `merged` on
// `pool`, partitioned by bucket residue. With m = min(local buckets, merged
// buckets) a key's local and merged buckets agree mod m, so local bucket b
// feeds only merged buckets congruent to b mod m. Each pool task owns one
// range of residues (core::for_each_bucket_range over [0, m)) and walks the
// locals t = 0..T-1 in order, and in each its own local buckets ascending.
// Every merged bucket therefore receives exactly the insert sequence of a
// serial table-then-bucket fold, and no two tasks share a merged bucket or
// its lock: every counter, the key count, the table's bytes and its digest
// are the same at any worker count. A task allocates from its pool worker's
// arena.
void merge_tables(std::span<const std::unique_ptr<ChainedHostTable>> locals,
                  ChainedHostTable& merged, gpusim::ThreadPool& pool);

// MapCG's separate reduce pass (§VI-C, [7]: "grouping is postponed to a
// later stage", the overhead on-the-fly combining avoids): one launched
// thread per bucket of the multi-valued `table` folds each key's value list
// into its newest value with `combine`, which then holds the key's result.
void reduce_values(gpusim::ExecContext& ctx, ChainedHostTable& table,
                   core::CombineFn combine);

}  // namespace sepo::baselines
