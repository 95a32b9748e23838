// Tests for the MapReduce stack: our SEPO runtime (§V), the Phoenix++-style
// CPU baseline, and the MapCG-style GPU baseline — all validated against
// sequential references, including under heaps small enough to force many
// SEPO iterations with multi-emission map functions.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "apps/harness.hpp"
#include "baselines/mapcg.hpp"
#include "baselines/phoenix.hpp"
#include "common/random.hpp"
#include "mapreduce/runtime.hpp"
#include "test_util.hpp"

namespace sepo::mapreduce {
namespace {

using test::Rig;
using test::as_u64;

void map_words(std::string_view record, Emitter& em) {
  std::size_t start = 0;
  while (start < record.size()) {
    std::size_t end = record.find(' ', start);
    if (end == std::string_view::npos) end = record.size();
    if (end > start) {
      if (em.emit_u64(record.substr(start, end - start), 1) ==
          core::Status::kPostpone)
        return;
    }
    start = end + 1;
  }
}

void map_pairs(std::string_view record, Emitter& em) {
  const std::size_t sp = record.find(' ');
  if (sp == std::string_view::npos) return;
  (void)em.emit(record.substr(sp + 1),
                std::as_bytes(std::span{record.data(), sp}));
}

std::string word_input(int lines, int vocab, std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream os;
  for (int i = 0; i < lines; ++i) {
    const int words = 3 + static_cast<int>(rng.below(8));
    for (int w = 0; w < words; ++w)
      os << "w" << rng.below(static_cast<std::uint64_t>(vocab))
         << (w + 1 < words ? ' ' : '\n');
  }
  return os.str();
}

std::unordered_map<std::string, std::uint64_t> word_reference(
    std::string_view input) {
  std::unordered_map<std::string, std::uint64_t> ref;
  const RecordIndex idx = index_lines(input);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const std::string_view body = idx.record(input.data(), i);
    std::size_t start = 0;
    while (start < body.size()) {
      std::size_t end = body.find(' ', start);
      if (end == std::string_view::npos) end = body.size();
      if (end > start) ref[std::string(body.substr(start, end - start))]++;
      start = end + 1;
    }
  }
  return ref;
}

// ---- our runtime ----

struct RuntimeRig {
  explicit RuntimeRig(std::size_t device_bytes) : rig(device_bytes) {
    cfg.pipeline.records_per_chunk = 256;
    cfg.pipeline.max_chunk_bytes = 16u << 10;
    cfg.pipeline.num_staging_buffers = 2;
    cfg.table.num_buckets = 1u << 10;
    cfg.table.buckets_per_group = 128;
    cfg.table.page_size = 2u << 10;
    runtime = std::make_unique<MapReduceRuntime>(rig.ctx,
                                                 cfg);
  }

  Rig rig;
  RuntimeConfig cfg;
  std::unique_ptr<MapReduceRuntime> runtime;
};

TEST(MapReduceRuntimeTest, WordCountMatchesReference) {
  RuntimeRig r(2u << 20);
  const std::string input = word_input(2000, 200, 1);
  const RunOutcome out = r.runtime->run(
      input, {.mode = Mode::kMapReduce, .map = map_words,
              .combine = core::combine_sum_u64});
  const auto ref = word_reference(input);
  ASSERT_EQ(out.table->entry_count(), ref.size());
  out.table->for_each([&](std::string_view k, std::span<const std::byte> v) {
    const auto it = ref.find(std::string(k));
    ASSERT_NE(it, ref.end()) << k;
    EXPECT_EQ(as_u64(v), it->second) << k;
  });
}

TEST(MapReduceRuntimeTest, MultiEmitSurvivesTinyHeap) {
  // The heap is small enough that map instances are postponed mid-record;
  // resume counters must prevent double counting (DESIGN.md, mapreduce).
  RuntimeRig r(320u << 10);
  const std::string input = word_input(9000, 30000, 2);
  const RunOutcome out = r.runtime->run(
      input, {.mode = Mode::kMapReduce, .map = map_words,
              .combine = core::combine_sum_u64});
  EXPECT_GT(out.driver.iterations, 1u);
  const auto ref = word_reference(input);
  std::uint64_t total = 0, ref_total = 0;
  out.table->for_each([&](std::string_view, std::span<const std::byte> v) {
    total += as_u64(v);
  });
  for (const auto& [k, v] : ref) ref_total += v;
  EXPECT_EQ(total, ref_total);
  ASSERT_EQ(out.table->entry_count(), ref.size());
}

TEST(MapReduceRuntimeTest, MapGroupCollectsAllValues) {
  RuntimeRig r(2u << 20);
  std::ostringstream os;
  std::map<std::string, std::multiset<std::string>> ref;
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    const std::string v = "v" + std::to_string(i);
    const std::string k = "k" + std::to_string(rng.below(100));
    os << v << ' ' << k << '\n';
    ref[k].insert(v);
  }
  const std::string input = os.str();
  const RunOutcome out =
      r.runtime->run(input, {.mode = Mode::kMapGroup, .map = map_pairs});
  std::size_t groups = 0;
  out.table->for_each_group(
      [&](std::string_view k,
          const std::vector<std::span<const std::byte>>& vals) {
        ++groups;
        const auto it = ref.find(std::string(k));
        ASSERT_NE(it, ref.end());
        std::multiset<std::string> got;
        for (const auto& v : vals) got.insert(test::bytes_to_string(v));
        EXPECT_EQ(got, it->second);
      });
  EXPECT_EQ(groups, ref.size());
}

TEST(MapReduceRuntimeTest, SecondRunRejected) {
  RuntimeRig r(2u << 20);
  const std::string input = word_input(100, 10, 4);
  const MrSpec spec{.mode = Mode::kMapReduce, .map = map_words,
                    .combine = core::combine_sum_u64};
  (void)r.runtime->run(input, spec);
  EXPECT_THROW((void)r.runtime->run(input, spec), std::logic_error);
}

TEST(MapReduceRuntimeTest, MapReduceNeedsCombine) {
  RuntimeRig r(2u << 20);
  EXPECT_THROW((void)r.runtime->run(
                   "a b\n", {.mode = Mode::kMapReduce, .map = map_words}),
               std::invalid_argument);
}

TEST(MapReduceRuntimeTest, CustomPartitioner) {
  RuntimeRig r(2u << 20);
  // Partition on ';' instead of newline.
  const std::string input = "a b;c a;b b b";
  const RunOutcome out = r.runtime->run(
      input,
      {.mode = Mode::kMapReduce, .map = map_words,
       .combine = core::combine_sum_u64},
      [](std::string_view in) {
        RecordIndex idx;
        std::size_t start = 0;
        while (start < in.size()) {
          std::size_t end = in.find(';', start);
          if (end == std::string_view::npos) end = in.size();
          idx.offsets.push_back(start);
          idx.lengths.push_back(static_cast<std::uint32_t>(end - start));
          start = end + 1;
        }
        return idx;
      });
  EXPECT_EQ(*out.table->lookup_u64("b"), 4u);
  EXPECT_EQ(*out.table->lookup_u64("a"), 2u);
}

// ---- Phoenix baseline ----

TEST(PhoenixTest, WordCountMatchesReference) {
  Rig rig(1u << 16, /*workers=*/2);
  baselines::PhoenixRuntime phoenix(rig.pool, rig.stats, {.num_threads = 4});
  const std::string input = word_input(3000, 300, 5);
  const auto table = phoenix.run(
      input, {.mode = Mode::kMapReduce, .map = map_words,
              .combine = core::combine_sum_u64});
  const auto ref = word_reference(input);
  ASSERT_EQ(table->entry_count(), ref.size());
  table->for_each([&](std::string_view k, std::span<const std::byte> v) {
    EXPECT_EQ(as_u64(v), ref.at(std::string(k))) << k;
  });
}

TEST(PhoenixTest, MapGroupKeepsEveryValue) {
  Rig rig(1u << 16, /*workers=*/2);
  baselines::PhoenixRuntime phoenix(rig.pool, rig.stats, {.num_threads = 4});
  std::ostringstream os;
  for (int i = 0; i < 1000; ++i) os << "v" << i << " k" << (i % 7) << "\n";
  const auto table =
      phoenix.run(os.str(), {.mode = Mode::kMapGroup, .map = map_pairs});
  EXPECT_EQ(table->entry_count(), 7u);
  EXPECT_EQ(table->value_count(), 1000u);
}

// The merge folds disjoint bucket-residue ranges on the pool. Every
// counter, the key count, the footprint and the digest must equal those of
// the serial fold (per-thread tables folded on one thread, table by table,
// bucket by bucket) at any pool size, with the per-thread tables both
// smaller and larger than the merged one.
std::string fingerprint(const gpusim::RunStats& stats,
                        const baselines::ChainedHostTable& table) {
  apps::RunResult r;
  r.stats = stats.snapshot();
  r.keys = table.entry_count();
  r.table_bytes = table.allocated_bytes();
  r.checksum = table.organization() == core::Organization::kMultiValued
                   ? apps::digest_groups(table)
                   : apps::digest_kv(table);
  return test::golden_fingerprint(r);
}

std::string phoenix_fingerprint(std::size_t workers,
                                const baselines::PhoenixConfig& cfg,
                                std::string_view input, const MrSpec& spec) {
  gpusim::ThreadPool pool(workers);
  gpusim::RunStats stats;
  baselines::PhoenixRuntime phoenix(pool, stats, cfg);
  return fingerprint(stats, *phoenix.run(input, spec));
}

std::string serial_fold_fingerprint(const baselines::PhoenixConfig& cfg,
                                    std::string_view input,
                                    const MrSpec& spec) {
  gpusim::RunStats stats;
  const core::Organization org = spec.mode == Mode::kMapReduce
                                     ? core::Organization::kCombining
                                     : core::Organization::kMultiValued;
  baselines::ChainedHostTable merged(
      stats, {.org = org,
              .num_buckets = cfg.merged_table_buckets,
              .combiner = spec.combine});
  const RecordIndex index = index_lines(input);
  const std::size_t n = index.size(), threads = cfg.num_threads;
  for (std::uint32_t t = 0; t < threads; ++t) {
    baselines::ChainedHostTable local(
        stats, {.org = org,
                .num_buckets = cfg.thread_table_buckets,
                .combiner = spec.combine});
    baselines::ChainedHostEmitter em(local, t);
    for (std::size_t r = n * t / threads; r < n * (t + 1) / threads; ++r) {
      const std::string_view body = index.record(input.data(), r);
      stats.add_work_units(body.size());
      spec.map(body, em);
      stats.add_records_processed();
    }
    if (org == core::Organization::kCombining)
      local.for_each([&](std::string_view k, std::span<const std::byte> v) {
        merged.insert(t, k, v);
      });
    else
      local.for_each_group([&](std::string_view k, const auto& vals) {
        for (const auto& v : vals) merged.insert(t, k, v);
      });
  }
  return fingerprint(stats, merged);
}

TEST(PhoenixMergeTest, EqualsSerialFoldAtEveryPoolSize) {
  const std::string words = word_input(4000, 3000, 9);
  std::ostringstream os;
  for (int i = 0; i < 6000; ++i) os << "v" << i << " k" << (i % 1500) << "\n";
  const std::string pairs = os.str();
  const MrSpec count{.mode = Mode::kMapReduce,
                     .map = map_words,
                     .combine = core::combine_sum_u64};
  const MrSpec group{.mode = Mode::kMapGroup, .map = map_pairs};
  // 1024 residues either way: four merge ranges.
  for (const auto& [local, merged] :
       {std::pair{1u << 10, 1u << 12}, std::pair{1u << 12, 1u << 10}}) {
    const baselines::PhoenixConfig cfg{.num_threads = 5,
                                       .thread_table_buckets = local,
                                       .merged_table_buckets = merged};
    for (const auto& [spec, input] :
         {std::pair{&count, &words}, std::pair{&group, &pairs}}) {
      const std::string serial = serial_fold_fingerprint(cfg, *input, *spec);
      EXPECT_NE(serial.find("chain_links_walked="), std::string::npos);
      for (std::size_t workers = 1; workers <= 4; ++workers)
        EXPECT_EQ(phoenix_fingerprint(workers, cfg, *input, *spec), serial)
            << "local " << local << ", merged " << merged << ", "
            << workers << " workers";
    }
  }
}

// ---- MapCG baseline ----

TEST(MapCgTest, WordCountReducesCorrectly) {
  Rig rig(2u << 20);
  baselines::MapCgRuntime mapcg(rig.ctx,
                                {.num_buckets = 1u << 10});
  const std::string input = word_input(1500, 150, 6);
  mapcg.run(input, {.mode = Mode::kMapReduce, .map = map_words,
                    .combine = core::combine_sum_u64});
  const auto ref = word_reference(input);
  EXPECT_EQ(mapcg.table().entry_count(), ref.size());
  std::size_t checked = 0;
  std::uint64_t serial = 0;
  mapcg.for_each_reduced([&](std::string_view k,
                             std::span<const std::byte> v) {
    EXPECT_EQ(as_u64(v), ref.at(std::string(k))) << k;
    ++checked;
    serial += apps::kv_digest_term(k, v);
  });
  EXPECT_EQ(checked, ref.size());
  EXPECT_GT(mapcg.table().serial_atomic_ops(), 0u);
  // The per-range sum over reduced values equals the serial visit's.
  EXPECT_EQ(mapcg.sum_reduced(apps::kv_digest_term, rig.pool), serial);
}

TEST(MapCgTest, FailsWhenDeviceMemoryExhausted) {
  Rig rig(96u << 10);  // tiny device
  baselines::MapCgRuntime mapcg(rig.ctx,
                                {.num_buckets = 256});
  const std::string input = word_input(4000, 4000, 7);
  EXPECT_THROW(mapcg.run(input, {.mode = Mode::kMapReduce, .map = map_words,
                                 .combine = core::combine_sum_u64}),
               baselines::MapCgOutOfMemory);
}

TEST(MapCgTest, GroupModeKeepsValueLists) {
  Rig rig(2u << 20);
  baselines::MapCgRuntime mapcg(rig.ctx,
                                {.num_buckets = 256});
  std::ostringstream os;
  for (int i = 0; i < 500; ++i) os << "v" << i << " k" << (i % 5) << "\n";
  const std::string input = os.str();
  mapcg.run(input, {.mode = Mode::kMapGroup, .map = map_pairs});
  EXPECT_EQ(mapcg.table().entry_count(), 5u);
  EXPECT_EQ(mapcg.table().value_count(), 500u);
  std::size_t values = 0;
  mapcg.table().for_each_group(
      [&](std::string_view, const std::vector<std::span<const std::byte>>& v) {
        values += v.size();
      });
  EXPECT_EQ(values, 500u);
}

}  // namespace
}  // namespace sepo::mapreduce
