// Tests for the MapReduce stack: our SEPO runtime (§V), the Phoenix++-style
// CPU baseline, and the MapCG-style GPU baseline (the last two run through
// the engine registry, plus their merge and reduce functions on their own)
// — all validated against sequential references, including under heaps
// small enough to force many SEPO iterations with multi-emission map
// functions.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "apps/engine.hpp"
#include "baselines/chained_host_table.hpp"
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

// ---- baselines through the registry ----

// A registered-app row over one of this file's map functions, so a baseline
// engine runs it exactly as it runs the real MapReduce apps.
struct TestApp {
  TestApp(Mode mode, MapFn map, core::CombineFn combine = nullptr)
      : mr{.name = "test",
           .table1_key = "wc",
           .mode = mode,
           .generate = nullptr,
           .map = std::move(map),
           .combine = combine},
        info{.key = "test", .title = "test", .mr = &mr} {}
  TestApp(const TestApp&) = delete;
  TestApp& operator=(const TestApp&) = delete;

  apps::MrApp mr;
  apps::AppInfo info;
};

// The digest a correct word-count run reports: every word with its count.
std::uint64_t word_digest(std::string_view input) {
  std::uint64_t sum = 0;
  for (const auto& [k, v] : word_reference(input))
    sum += apps::kv_digest_term(k, test::bytes_of(v));
  return sum;
}

// "v<i> k<i % keys>" lines, and the digest of their <k, {v...}> groups.
std::string pair_input(int n, int keys) {
  std::ostringstream os;
  for (int i = 0; i < n; ++i) os << "v" << i << " k" << (i % keys) << "\n";
  return os.str();
}
std::uint64_t group_digest(std::string_view input) {
  std::map<std::string, std::vector<std::string>> groups;
  const RecordIndex idx = index_lines(input);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const std::string_view body = idx.record(input.data(), i);
    const std::size_t sp = body.find(' ');
    groups[std::string(body.substr(sp + 1))].emplace_back(body.substr(0, sp));
  }
  std::uint64_t sum = 0;
  for (const auto& [k, vs] : groups) {
    std::vector<std::span<const std::byte>> vals;
    for (const auto& v : vs) vals.push_back(std::as_bytes(std::span{v}));
    sum += apps::group_digest_term(k, vals);
  }
  return sum;
}

apps::RunResult phoenix_run(const TestApp& app, std::string_view input,
                            std::uint32_t threads, std::size_t workers) {
  apps::EngineConfig cfg;
  cfg.cpu.num_threads = threads;
  cfg.cpu.pool_workers = workers;
  return apps::find_engine("phoenix")->run(app.info, input, cfg);
}

apps::RunResult mapcg_run(const TestApp& app, std::string_view input,
                          std::size_t device_bytes,
                          std::uint32_t num_buckets) {
  apps::EngineConfig cfg;
  cfg.gpu.device_bytes = device_bytes;
  cfg.gpu.num_buckets = num_buckets;
  return apps::find_engine("mapcg")->run(app.info, input, cfg);
}

// ---- Phoenix baseline ----

TEST(PhoenixTest, WordCountMatchesReference) {
  const TestApp wc(Mode::kMapReduce, map_words, core::combine_sum_u64);
  const std::string input = word_input(3000, 300, 5);
  const apps::RunResult r = phoenix_run(wc, input, 4, /*workers=*/2);
  ASSERT_FALSE(r.error) << r.error.message;
  EXPECT_EQ(r.keys, word_reference(input).size());
  EXPECT_EQ(r.checksum, word_digest(input));
}

TEST(PhoenixTest, MapGroupKeepsEveryValue) {
  const TestApp group(Mode::kMapGroup, map_pairs);
  const std::string input = pair_input(1000, 7);
  const apps::RunResult r = phoenix_run(group, input, 4, /*workers=*/2);
  ASSERT_FALSE(r.error) << r.error.message;
  EXPECT_EQ(r.keys, 7u);
  EXPECT_EQ(r.checksum, group_digest(input));
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

struct MergeShape {
  std::uint32_t threads, local_buckets, merged_buckets;
};

// Maps `input` into `shape.threads` per-thread tables, contiguous record
// ranges as the phoenix row splits them; `fold(t, local)` receives each.
template <typename Fold>
void map_per_thread(const MergeShape& shape, std::string_view input,
                    const MrSpec& spec, gpusim::RunStats& stats,
                    const Fold& fold) {
  const TableShape table = table_shape(spec.mode, spec.combine);
  const RecordIndex index = index_lines(input);
  const std::size_t n = index.size(), threads = shape.threads;
  for (std::uint32_t t = 0; t < threads; ++t) {
    auto local = std::make_unique<baselines::ChainedHostTable>(
        stats, baselines::ChainedHostTableConfig{
                   .org = table.org,
                   .num_buckets = shape.local_buckets,
                   .combiner = table.combiner});
    baselines::ChainedHostEmitter em(*local, t);
    for (std::size_t r = n * t / threads; r < n * (t + 1) / threads; ++r) {
      const std::string_view body = index.record(input.data(), r);
      stats.add_work_units(body.size());
      spec.map(body, em);
      stats.add_records_processed();
    }
    fold(t, std::move(local));
  }
}

baselines::ChainedHostTableConfig merged_config(const MergeShape& shape,
                                                const MrSpec& spec) {
  const TableShape table = table_shape(spec.mode, spec.combine);
  return {.org = table.org,
          .num_buckets = shape.merged_buckets,
          .combiner = table.combiner};
}

std::string merge_fingerprint(std::size_t workers, const MergeShape& shape,
                              std::string_view input, const MrSpec& spec) {
  gpusim::ThreadPool pool(workers);
  gpusim::RunStats stats;
  std::vector<std::unique_ptr<baselines::ChainedHostTable>> locals;
  map_per_thread(shape, input, spec, stats, [&](std::uint32_t, auto local) {
    locals.push_back(std::move(local));
  });
  baselines::ChainedHostTable merged(stats, merged_config(shape, spec));
  baselines::merge_tables(locals, merged, pool);
  return fingerprint(stats, merged);
}

std::string serial_fold_fingerprint(const MergeShape& shape,
                                    std::string_view input,
                                    const MrSpec& spec) {
  gpusim::RunStats stats;
  baselines::ChainedHostTable merged(stats, merged_config(shape, spec));
  map_per_thread(shape, input, spec, stats,
                 [&](std::uint32_t t, const auto& local) {
                   if (merged.organization() ==
                       core::Organization::kCombining)
                     local->for_each([&](std::string_view k,
                                         std::span<const std::byte> v) {
                       merged.insert(t, k, v);
                     });
                   else
                     local->for_each_group(
                         [&](std::string_view k, const auto& vals) {
                           for (const auto& v : vals) merged.insert(t, k, v);
                         });
                 });
  return fingerprint(stats, merged);
}

TEST(PhoenixMergeTest, EqualsSerialFoldAtEveryPoolSize) {
  const std::string words = word_input(4000, 3000, 9);
  const std::string pairs = pair_input(6000, 1500);
  const MrSpec count{.mode = Mode::kMapReduce,
                     .map = map_words,
                     .combine = core::combine_sum_u64};
  const MrSpec group{.mode = Mode::kMapGroup, .map = map_pairs};
  // 1024 residues either way: four merge ranges.
  for (const auto& [local, merged] :
       {std::pair{1u << 10, 1u << 12}, std::pair{1u << 12, 1u << 10}}) {
    const MergeShape shape{.threads = 5,
                           .local_buckets = local,
                           .merged_buckets = merged};
    for (const auto& [spec, input] :
         {std::pair{&count, &words}, std::pair{&group, &pairs}}) {
      const std::string serial = serial_fold_fingerprint(shape, *input, *spec);
      EXPECT_NE(serial.find("chain_links_walked="), std::string::npos);
      for (std::size_t workers = 1; workers <= 4; ++workers)
        EXPECT_EQ(merge_fingerprint(workers, shape, *input, *spec), serial)
            << "local " << local << ", merged " << merged << ", "
            << workers << " workers";
    }
  }
}

// The whole phoenix row, map and merge, is the same run at any pool size.
TEST(PhoenixMergeTest, RegistryRunIsTheSameAtEveryPoolSize) {
  const TestApp wc(Mode::kMapReduce, map_words, core::combine_sum_u64);
  const TestApp group(Mode::kMapGroup, map_pairs);
  const std::string words = word_input(4000, 3000, 9);
  const std::string pairs = pair_input(6000, 1500);
  for (const auto& [app, input] :
       {std::pair{&wc, &words}, std::pair{&group, &pairs}}) {
    const apps::RunResult one = phoenix_run(*app, *input, 5, 1);
    ASSERT_FALSE(one.error) << one.error.message;
    for (std::size_t workers = 2; workers <= 4; ++workers) {
      const apps::RunResult r = phoenix_run(*app, *input, 5, workers);
      EXPECT_EQ(test::golden_fingerprint(r), test::golden_fingerprint(one))
          << workers << " workers";
      EXPECT_EQ(r.sim_seconds, one.sim_seconds) << workers << " workers";
    }
  }
}

// ---- MapCG baseline ----

TEST(MapCgTest, WordCountReducesCorrectly) {
  const TestApp wc(Mode::kMapReduce, map_words, core::combine_sum_u64);
  const std::string input = word_input(1500, 150, 6);
  const apps::RunResult r = mapcg_run(wc, input, 2u << 20, 1u << 10);
  ASSERT_FALSE(r.error) << r.error.message;
  EXPECT_EQ(r.keys, word_reference(input).size());
  // The per-range sum over the reduced values equals the serial reference.
  EXPECT_EQ(r.checksum, word_digest(input));
  EXPECT_GT(r.serial.serial_atomic_ops, 0u);
}

// The reduce pass alone: each key's newest value ends up holding its fold.
TEST(MapCgTest, ReducePassFoldsEachValueList) {
  Rig rig(2u << 20);
  baselines::ChainedHostTable table(
      rig.ctx,
      {.org = core::Organization::kMultiValued, .num_buckets = 1u << 10},
      baselines::EntryMemory::kDevice);
  table.carve_device_heap();
  const std::string input = word_input(1500, 150, 6);
  const RecordIndex index = index_lines(input);
  baselines::ChainedHostEmitter em(table, 0);
  for (std::size_t i = 0; i < index.size(); ++i)
    map_words(index.record(input.data(), i), em);
  ASSERT_FALSE(em.failed());
  baselines::reduce_values(rig.ctx, table, core::combine_sum_u64);
  const auto ref = word_reference(input);
  EXPECT_EQ(table.entry_count(), ref.size());
  std::size_t checked = 0;
  table.for_each_group([&](std::string_view k, const auto& vals) {
    ASSERT_FALSE(vals.empty());
    EXPECT_EQ(as_u64(vals.front()), ref.at(std::string(k))) << k;
    ++checked;
  });
  EXPECT_EQ(checked, ref.size());
}

TEST(MapCgTest, FailsWhenDeviceMemoryExhausted) {
  const TestApp wc(Mode::kMapReduce, map_words, core::combine_sum_u64);
  const std::string input = word_input(4000, 4000, 7);
  const apps::RunResult r = mapcg_run(wc, input, 96u << 10, 256);
  EXPECT_EQ(r.error.kind, apps::RunError::Kind::kDeviceOutOfMemory);
}

TEST(MapCgTest, GroupModeKeepsValueLists) {
  const TestApp group(Mode::kMapGroup, map_pairs);
  const std::string input = pair_input(500, 5);
  const apps::RunResult r = mapcg_run(group, input, 2u << 20, 256);
  ASSERT_FALSE(r.error) << r.error.message;
  EXPECT_EQ(r.keys, 5u);
  EXPECT_EQ(r.stats.value_appends, 500u);
  EXPECT_EQ(r.checksum, group_digest(input));
}

}  // namespace
}  // namespace sepo::mapreduce
