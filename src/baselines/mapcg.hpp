// MapCG-style GPU MapReduce baseline (paper §VI-C; [7] Hong et al. 2010).
//
// Modelled from MapCG's published design, with the properties the paper's
// comparison turns on:
//   * the whole input is copied to device memory up front (no pipelining);
//   * KV pairs go into a device hash table whose entries come from ONE
//     global bump allocator (a single atomically-incremented offset — the
//     serialization the distributed bucket-group allocator of §IV-A avoids);
//   * duplicate keys are NOT combined on the fly: every emission allocates a
//     value node, and kMapReduce needs a separate reduce pass afterwards;
//   * there is no SEPO: when device memory runs out, the run FAILS
//     ("the execution fails when there is no more free memory to store newly
//     inserted KV pairs", §VI-C).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/sharded_counters.hpp"
#include "gpusim/thread_pool.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::baselines {

// Thrown when the non-SEPO hash table exhausts device memory.
class MapCgOutOfMemory : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct MapCgConfig {
  std::uint32_t num_buckets = 1u << 15;  // power of two
  std::size_t grid_threads = 0;
};

class MapCgRuntime {
 public:
  explicit MapCgRuntime(gpusim::ExecContext& ctx, MapCgConfig cfg = {});

  // Runs map over all records; throws MapCgOutOfMemory when the device
  // cannot hold input + table. For kMapReduce a separate reduce pass folds
  // each key's value list with spec.combine.
  void run(std::string_view input, const mapreduce::MrSpec& spec);

  // --- result access (valid after run) ---

  // kMapReduce results: fn(key, reduced_value).
  void for_each_reduced(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;

  // kMapGroup results: fn(key, values).
  void for_each_group(
      const std::function<void(std::string_view,
                               const std::vector<std::span<const std::byte>>&)>&
          fn) const;

  [[nodiscard]] std::size_t key_count() const noexcept {
    return tallies_.sum(kKeys);
  }
  [[nodiscard]] std::size_t value_count() const noexcept {
    return tallies_.sum(kValues);
  }

  // Number of operations on the single global allocation counter — feeds the
  // cost model's serial-atomic term.
  [[nodiscard]] std::uint64_t serial_atomic_ops() const noexcept {
    return tallies_.sum(kSerialAtomicOps);
  }

  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return gpusim::bucket_load(locks_);
  }

 private:
  struct KeyNode {
    gpusim::DevPtr next;
    gpusim::DevPtr vhead;
    std::uint32_t key_len;
    std::uint32_t reduced_len;  // set by the reduce pass
    [[nodiscard]] const char* key_data() const noexcept {
      return reinterpret_cast<const char*>(this + 1);
    }
    [[nodiscard]] char* key_data() noexcept {
      return reinterpret_cast<char*>(this + 1);
    }
    [[nodiscard]] std::string_view key() const noexcept {
      return {key_data(), key_len};
    }
  };
  struct ValueNode {
    gpusim::DevPtr next;
    std::uint32_t val_len;
    std::uint32_t pad_;
    [[nodiscard]] const std::byte* value_data() const noexcept {
      return reinterpret_cast<const std::byte*>(this + 1);
    }
    [[nodiscard]] std::byte* value_data() noexcept {
      return reinterpret_cast<std::byte*>(this + 1);
    }
  };

  gpusim::DevPtr global_alloc(std::uint32_t bytes);
  core::Status insert(std::string_view key, std::span<const std::byte> value);
  void reduce_pass(core::CombineFn combine);

  gpusim::ExecContext& ctx_;
  gpusim::Device& dev_;
  gpusim::RunStats& stats_;
  MapCgConfig cfg_;
  std::uint32_t bucket_mask_;

  std::vector<std::atomic<gpusim::DevPtr>> heads_;
  // Lock + access tally per bucket on private cache lines
  // (gpusim::PaddedBucketLock); accesses incremented under the bucket lock.
  std::vector<gpusim::PaddedBucketLock> locks_;

  gpusim::DevPtr arena_base_ = gpusim::kDevNull;
  std::size_t arena_size_ = 0;
  // The modelled device bump allocator: one shared atomic offset, on purpose.
  std::atomic<std::uint64_t> arena_used_{0};

  // Host-side tallies, counted per worker like RunStats. Operations on
  // arena_used_ are the priced serial atomics; counting them must not add a
  // second shared atomic.
  enum Tally : std::size_t { kKeys, kValues, kSerialAtomicOps, kNumTallies };
  gpusim::ShardedCounters<kNumTallies> tallies_;
  bool reduced_ = false;
};

}  // namespace sepo::baselines
