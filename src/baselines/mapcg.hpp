// MapCG-style GPU MapReduce baseline (paper §VI-C; [7] Hong et al. 2010).
//
// Modelled from MapCG's published design, with the properties the paper's
// comparison turns on:
//   * the whole input is copied to device memory up front (no pipelining);
//   * KV pairs go into a device hash table — the device placement of
//     ChainedHostTable — whose entries come from ONE global bump allocator
//     (a single atomically-incremented offset, the serialization the
//     distributed bucket-group allocator of §IV-A avoids);
//   * duplicate keys are NOT combined on the fly: the table is multi-valued,
//     every emission allocates a value entry, and kMapReduce needs a
//     separate reduce pass afterwards;
//   * there is no SEPO: when device memory runs out, the run FAILS
//     ("the execution fails when there is no more free memory to store newly
//     inserted KV pairs", §VI-C).
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "baselines/chained_host_table.hpp"
#include "gpusim/exec_context.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::baselines {

// Thrown when the non-SEPO hash table exhausts device memory.
class MapCgOutOfMemory : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct MapCgConfig {
  std::uint32_t num_buckets = 1u << 15;  // power of two
};

class MapCgRuntime {
 public:
  explicit MapCgRuntime(gpusim::ExecContext& ctx, MapCgConfig cfg = {});

  // Runs map over all records; throws MapCgOutOfMemory when the device
  // cannot hold input + table. For kMapReduce a separate reduce pass folds
  // each key's value list with spec.combine.
  void run(std::string_view input, const mapreduce::MrSpec& spec);

  // kMapReduce results (valid after run): fn(key, reduced_value), the
  // reduced value being the head of the key's value list.
  void for_each_reduced(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;
  // Sums term(key, reduced_value) over every key, per bucket range on `pool`
  // (ChainedHostTable::sum_groups).
  template <typename Term>
  [[nodiscard]] std::uint64_t sum_reduced(const Term& term,
                                          gpusim::ThreadPool& pool) const {
    return table_.sum_groups(
        [&](std::string_view k, const auto& vals) {
          return vals.empty() ? std::uint64_t{0} : term(k, vals.front());
        },
        pool);
  }

  // The multi-valued device table: keys, value lists, serial atomics and
  // bucket load.
  [[nodiscard]] const ChainedHostTable& table() const noexcept {
    return table_;
  }

 private:
  void reduce_pass(core::CombineFn combine);

  gpusim::ExecContext& ctx_;
  ChainedHostTable table_;
};

}  // namespace sepo::baselines
