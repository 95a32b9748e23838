// Randomized differential testing: random table/pipeline configurations x
// random workloads, each checked against a sequential std::map reference
// built from the same records. The reference shares no table code, so it
// also catches faults in the finalize walk itself. Catches interactions
// between knobs that the fixed-corner sweeps (property_sweep_test.cpp) do
// not enumerate.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/sepo_driver.hpp"
#include "test_util.hpp"

namespace sepo::core {
namespace {

using test::Rig;
using test::as_u64;

class RandomConfig : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConfig, GpuPathMatchesMapReference) {
  Rng rng(GetParam());

  // --- random configuration ---
  const auto org = static_cast<Organization>(rng.below(3));
  const std::uint32_t num_buckets = 1u << (6 + rng.below(6));     // 64..2048
  const std::uint32_t bpg = std::max<std::uint32_t>(
      1, num_buckets >> (2 + rng.below(4)));                      // 4..many
  const std::size_t page_size = std::size_t{1} << (9 + rng.below(4));
  const std::size_t device_kb = 160 + rng.below(1900);
  const std::size_t workers = 1 + rng.below(4);
  const std::size_t records = 2000 + rng.below(8000);
  const std::size_t key_space = 50 + rng.below(4000);

  SCOPED_TRACE("org=" + std::string(to_string(org)) +
               " buckets=" + std::to_string(num_buckets) +
               " bpg=" + std::to_string(bpg) +
               " page=" + std::to_string(page_size) +
               " device_kb=" + std::to_string(device_kb) +
               " workers=" + std::to_string(workers) +
               " records=" + std::to_string(records) +
               " keys=" + std::to_string(key_space));

  // --- workload ---
  std::ostringstream os;
  {
    Rng wl(GetParam() ^ 0xabcdef);
    for (std::size_t i = 0; i < records; ++i)
      os << "k" << wl.below(key_space) << '\n';
  }
  const std::string input = os.str();
  const RecordIndex idx = index_lines(input);

  // --- device run ---
  Rig rig(device_kb << 10, workers);
  bigkernel::PipelineConfig pcfg;
  pcfg.records_per_chunk = 64 + rng.below(512);
  pcfg.max_chunk_bytes = 16u << 10;
  pcfg.num_staging_buffers = 1 + rng.below(3);
  bigkernel::InputPipeline pipe(rig.ctx, pcfg);
  HashTableConfig cfg;
  cfg.org = org;
  cfg.num_buckets = num_buckets;
  cfg.buckets_per_group = bpg;
  cfg.page_size = page_size;
  if (org == Organization::kCombining) cfg.combiner = combine_sum_u64;
  SepoHashTable ht(rig.ctx, cfg);
  ProgressTracker progress(idx.size());
  SepoDriver driver;
  (void)driver.run(ht, pipe, input, idx, progress,
                   [&](std::size_t i, std::string_view body) {
                     return ht.insert_u64(body, i + 1);
                   });
  const HostTable got = ht.finalize();

  // --- reference: every record's value, per key, in record order ---
  std::map<std::string, std::vector<std::uint64_t>> ref;
  for (std::size_t i = 0; i < idx.size(); ++i)
    ref[std::string(idx.record(input.data(), i))].push_back(i + 1);

  // --- compare, organization-appropriately ---
  const auto sorted_u64 =
      [](const std::vector<std::span<const std::byte>>& vs) {
        std::vector<std::uint64_t> out;
        for (const auto& v : vs) out.push_back(as_u64(v));
        std::sort(out.begin(), out.end());
        return out;
      };
  switch (org) {
    case Organization::kCombining:
      // Duplicates are folded: one entry per distinct key.
      ASSERT_EQ(got.entry_count(), ref.size());
      ASSERT_EQ(got.value_count(), ref.size());
      for (const auto& [k, vals] : ref) {
        std::uint64_t sum = 0;
        for (const std::uint64_t v : vals) sum += v;
        ASSERT_EQ(got.lookup_u64(k), sum) << k;
      }
      break;
    case Organization::kBasic:
      // Every record keeps its own entry.
      ASSERT_EQ(got.entry_count(), records);
      ASSERT_EQ(got.value_count(), records);
      for (const auto& [k, vals] : ref)
        ASSERT_EQ(sorted_u64(got.lookup_all(k)), vals) << k;
      break;
    case Organization::kMultiValued:
      ASSERT_EQ(got.entry_count(), ref.size());
      ASSERT_EQ(got.value_count(), records);
      for (const auto& [k, vals] : ref) {
        const auto g = got.lookup_group(k);
        ASSERT_TRUE(g.has_value()) << k;
        ASSERT_EQ(sorted_u64(*g), vals) << k;
      }
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfig,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace sepo::core
