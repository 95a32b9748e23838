// Phoenix++-style multicore CPU MapReduce baseline (paper §VI-B: "The three
// MapReduce applications ... are compared against the corresponding
// CPU-based applications developed using Phoenix++, a state-of-the-art
// MapReduce runtime for multi-core CPUs" [12] Talbot et al.).
//
// Faithful to Phoenix++'s key design: each worker thread maps its share of
// the input into a *private* hash container (no locking on the hot path,
// combining/grouping applied eagerly), followed by a merge phase that folds
// the per-thread containers into the final table in parallel.
//
// The merge partitions by bucket residue. Both bucket counts are powers of
// two, so with m = min(thread_table_buckets, merged_table_buckets) a key's
// local bucket and its merged bucket agree mod m: local bucket b feeds only
// merged buckets congruent to b mod m. Each pool task owns one range of
// residues (core::for_each_bucket_range over [0, m)) and walks the local
// containers t = 0..T-1 in order, and in each its own local buckets in
// ascending order. Every merged bucket therefore receives exactly the insert
// sequence of a serial t-then-bucket fold, and no two tasks share a merged
// bucket or its lock. So every counter (chain links, compared key bytes,
// lock acquires, ...), the key count, the table's bytes and its digest are
// the same at any worker count. A task allocates from its pool worker's
// arena.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "baselines/chained_host_table.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/thread_pool.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::baselines {

struct PhoenixConfig {
  std::uint32_t num_threads = 8;
  std::uint32_t thread_table_buckets = 1u << 12;  // per-worker container
  std::uint32_t merged_table_buckets = 1u << 15;
};

class PhoenixRuntime {
 public:
  PhoenixRuntime(gpusim::ThreadPool& pool, gpusim::RunStats& stats,
                 PhoenixConfig cfg = {});

  // Runs map over all newline-delimited records of `input` and merges the
  // per-thread results. The returned table uses the combining organization
  // for kMapReduce and the multi-valued organization for kMapGroup.
  std::unique_ptr<ChainedHostTable> run(std::string_view input,
                                    const mapreduce::MrSpec& spec);

 private:
  gpusim::ThreadPool& pool_;
  gpusim::RunStats& stats_;
  PhoenixConfig cfg_;
};

}  // namespace sepo::baselines
