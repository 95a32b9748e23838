// Unit tests for the baseline implementations: the chained host table in
// its CPU, pinned and device placements, and the demand-paging simulator.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "apps/harness.hpp"
#include "baselines/chained_host_table.hpp"
#include "baselines/paging_sim.hpp"
#include "common/random.hpp"
#include "test_util.hpp"

namespace sepo::baselines {
namespace {

using test::Rig;
using test::as_u64;

// ---- ChainedHostTable, CPU placement ----

TEST(ChainedHostTableTest, CombiningSumsValues) {
  gpusim::RunStats stats;
  ChainedHostTable t(stats, {.num_buckets = 256,
                             .combiner = core::combine_sum_u64});
  t.insert_u64(0, "a", 1);
  t.insert_u64(0, "a", 2);
  t.insert_u64(1, "b", 5);
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(as_u64(*t.lookup("a")), 3u);
  EXPECT_EQ(as_u64(*t.lookup("b")), 5u);
  EXPECT_FALSE(t.lookup("c").has_value());
}

TEST(ChainedHostTableTest, BasicKeepsDuplicates) {
  gpusim::RunStats stats;
  ChainedHostTable t(stats, {.org = core::Organization::kBasic});
  t.insert_u64(0, "dup", 1);
  t.insert_u64(0, "dup", 2);
  EXPECT_EQ(t.lookup_all("dup").size(), 2u);
  EXPECT_EQ(t.entry_count(), 2u);
}

TEST(ChainedHostTableTest, MultiValuedGroups) {
  gpusim::RunStats stats;
  ChainedHostTable t(stats, {.org = core::Organization::kMultiValued});
  auto ins = [&](std::string_view k, std::string_view v) {
    t.insert(0, k, std::as_bytes(std::span{v.data(), v.size()}));
  };
  ins("k", "v1");
  ins("k", "v2");
  ins("j", "v3");
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.value_count(), 3u);
  EXPECT_EQ(t.lookup_group("k")->size(), 2u);
}

TEST(ChainedHostTableTest, ParallelInsertsMatchSerialReference) {
  Rig rig(1u << 16, /*workers=*/4);
  ChainedHostTable t(rig.stats, {.combiner = core::combine_sum_u64});
  constexpr int kN = 50000, kKeys = 500;
  rig.pool.run_parties(4, [&](std::size_t party) {
    for (int i = static_cast<int>(party); i < kN; i += 4)
      t.insert_u64(static_cast<std::uint32_t>(party),
                   "k" + std::to_string(i % kKeys), 1);
  });
  EXPECT_EQ(t.entry_count(), static_cast<std::size_t>(kKeys));
  std::uint64_t total = 0;
  t.for_each([&](std::string_view, std::span<const std::byte> v) {
    total += as_u64(v);
  });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kN));
}

TEST(ChainedHostTableTest, TracksAllocationFootprint) {
  gpusim::RunStats stats;
  ChainedHostTable t(stats, {.combiner = core::combine_sum_u64});
  EXPECT_EQ(t.allocated_bytes(), 0u);
  t.insert_u64(0, "key", 1);
  EXPECT_GT(t.allocated_bytes(), 0u);
  const std::size_t once = t.allocated_bytes();
  t.insert_u64(0, "key", 1);  // combine: no new allocation
  EXPECT_EQ(t.allocated_bytes(), once);
}

TEST(ChainedHostTableTest, BucketLoadSeesHotKey) {
  gpusim::RunStats stats;
  ChainedHostTable t(stats, {.combiner = core::combine_sum_u64});
  for (int i = 0; i < 100; ++i) t.insert_u64(0, "hot", 1);
  for (int i = 0; i < 50; ++i) t.insert_u64(0, "k" + std::to_string(i), 1);
  const auto load = t.bucket_load();
  EXPECT_EQ(load.total_accesses, 150u);
  EXPECT_GE(load.max_bucket_accesses, 100u);
}

// The per-range digests (sum_entries / sum_groups on a pool) equal the
// serial for_each / for_each_group digest in every organization, at any
// pool size.
TEST(ChainedHostTableTest, RangeSumsMatchSerialDigest) {
  for (const auto org :
       {core::Organization::kBasic, core::Organization::kCombining,
        core::Organization::kMultiValued}) {
    gpusim::RunStats stats;
    ChainedHostTable t(stats, {.org = org,
                               .num_buckets = 1u << 12,  // 16 ranges
                               .combiner = core::combine_sum_u64});
    for (int i = 0; i < 20000; ++i)
      t.insert_u64(0, "k" + std::to_string(i * 7 % 5000), i);
    const bool grouped = org == core::Organization::kMultiValued;
    const std::uint64_t serial =
        grouped ? apps::digest_groups(t) : apps::digest_kv(t);
    ASSERT_NE(serial, 0u);
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      gpusim::ThreadPool pool(workers);
      EXPECT_EQ(grouped ? t.sum_groups(apps::group_digest_term, pool)
                        : t.sum_entries(apps::kv_digest_term, pool),
                serial)
          << "org " << static_cast<int>(org) << ", " << workers
          << " workers";
    }
  }
}

// ---- ChainedHostTable, pinned placement ----

TEST(ChainedHostTableTest, PinnedCombiningCorrectAndRemoteMetered) {
  Rig rig(1u << 20);
  ChainedHostTable t(rig.ctx, {.num_buckets = 256,
                               .combiner = core::combine_sum_u64});
  for (int i = 0; i < 100; ++i)
    t.insert_u64(0, "key-" + std::to_string(i % 10), 1);
  EXPECT_EQ(t.entry_count(), 10u);
  EXPECT_EQ(as_u64(*t.lookup("key-3")), 10u);
  const auto p = rig.dev.bus().snapshot();
  EXPECT_GE(p.remote_txns, 100u);  // every insert crossed the bus
  EXPECT_GT(p.remote_bytes, 0u);
  EXPECT_EQ(p.h2d_bytes, 0u);  // no bulk transfers in this design
}

TEST(ChainedHostTableTest, PinnedMultiValuedGroupsSurvive) {
  Rig rig(1u << 20);
  ChainedHostTable t(rig.ctx, {.org = core::Organization::kMultiValued});
  auto ins = [&](std::string_view k, std::string_view v) {
    t.insert(0, k, std::as_bytes(std::span{v.data(), v.size()}));
  };
  ins("url", "a");
  ins("url", "b");
  EXPECT_EQ(t.lookup_group("url")->size(), 2u);
  std::size_t groups = 0;
  t.for_each_group([&](std::string_view,
                       const std::vector<std::span<const std::byte>>&) {
    ++groups;
  });
  EXPECT_EQ(groups, 1u);
}

TEST(ChainedHostTableTest, PinnedProbesCostRemoteTransactions) {
  Rig rig(1u << 20);
  ChainedHostTable t(rig.ctx, {.num_buckets = 1,  // force one long chain
                               .combiner = core::combine_sum_u64});
  for (int i = 0; i < 20; ++i) t.insert_u64(0, "k" + std::to_string(i), 1);
  const auto before = rig.dev.bus().snapshot().remote_txns;
  t.insert_u64(0, "k19", 1);  // probes the chain remotely
  const auto after = rig.dev.bus().snapshot().remote_txns;
  EXPECT_GT(after, before);
}

TEST(ChainedHostTableTest, PinnedBucketArrayIsDeviceResident) {
  Rig rig(1u << 20);
  const std::size_t before = rig.dev.static_used();
  ChainedHostTable t(rig.ctx, {.num_buckets = 1024,
                               .combiner = core::combine_sum_u64});
  EXPECT_EQ(rig.dev.static_used() - before, 1024u * 12u);
}

// ---- ChainedHostTable, device placement (MapCG) ----

TEST(ChainedHostTableTest, DeviceHeapIsOneSharedOffsetThatPostponesWhenFull) {
  Rig rig(64u << 10);
  ChainedHostTable t(rig.ctx,
                     {.org = core::Organization::kMultiValued,
                      .num_buckets = 64},
                     EntryMemory::kDevice);
  t.carve_device_heap();
  EXPECT_EQ(rig.dev.mem_free(), 0u);  // the heap took the rest of the device
  std::uint64_t n = 0;
  while (t.insert_u64(0, "k" + std::to_string(n), n) ==
         core::Status::kSuccess)
    ++n;
  EXPECT_GT(n, 100u);
  const gpusim::StatsSnapshot s = rig.stats.snapshot();
  EXPECT_EQ(s.alloc_fails, 1u);
  EXPECT_EQ(t.serial_atomic_ops(), s.alloc_ops);  // one per allocation
  EXPECT_EQ(rig.dev.bus().snapshot().remote_txns, 0u);  // device-resident
  EXPECT_EQ(as_u64(t.lookup_group("k7")->front()), 7u);
  EXPECT_EQ(t.value_count(), n);
}

// Entries larger than a heap chunk get their own exact-size chunk. Both
// placements, every organization, keys and values across the chunk size,
// interleaved with small entries that keep bumping the regular chunk.
TEST(ChainedHostTableTest, OversizedEntriesGetTheirOwnChunk) {
  const std::string big_a(300u << 10, 'a');  // > the CPU chunk
  const std::string big_b(2u << 20, 'b');    // > the pinned chunk
  for (const bool pinned : {false, true}) {
    for (const core::Organization org :
         {core::Organization::kBasic, core::Organization::kCombining,
          core::Organization::kMultiValued}) {
      SCOPED_TRACE(std::string(pinned ? "pinned" : "cpu") + " org=" +
                   std::to_string(static_cast<int>(org)));
      Rig rig(1u << 20);
      const ChainedHostTableConfig cfg{.org = org,
                                       .num_buckets = 64,
                                       .combiner = core::combine_sum_u64};
      std::optional<ChainedHostTable> t;
      if (pinned)
        t.emplace(rig.ctx, cfg);
      else
        t.emplace(rig.stats, cfg);
      const auto value_of = [](const std::string& s) {
        return std::as_bytes(std::span{s.data(), s.size()});
      };
      t->insert_u64(0, "small-1", 1);
      t->insert_u64(0, big_a, 7);
      t->insert_u64(0, "small-2", 2);
      t->insert(0, big_b, value_of(big_b));
      t->insert_u64(0, "small-3", 3);
      EXPECT_EQ(rig.stats.snapshot().alloc_ops,
                org == core::Organization::kMultiValued ? 10u : 5u);
      EXPECT_GE(t->allocated_bytes(), big_a.size() + 2 * big_b.size());

      if (org == core::Organization::kMultiValued) {
        ASSERT_EQ(t->lookup_group(big_a)->size(), 1u);
        EXPECT_EQ(as_u64(t->lookup_group(big_a)->front()), 7u);
        ASSERT_EQ(t->lookup_group(big_b)->size(), 1u);
        EXPECT_EQ(test::bytes_to_string(t->lookup_group(big_b)->front()),
                  big_b);
        EXPECT_EQ(as_u64(t->lookup_group("small-3")->front()), 3u);
      } else {
        EXPECT_EQ(as_u64(*t->lookup(big_a)), 7u);
        EXPECT_EQ(test::bytes_to_string(*t->lookup(big_b)), big_b);
        EXPECT_EQ(as_u64(*t->lookup("small-1")), 1u);
        EXPECT_EQ(as_u64(*t->lookup("small-2")), 2u);
        EXPECT_EQ(as_u64(*t->lookup("small-3")), 3u);
      }
      EXPECT_EQ(t->entry_count(), 5u);
    }
  }
}

// ---- paging simulator ----

TEST(PagingSimTest, NoReplacementsWhenEverythingFits) {
  const std::uint64_t trace[] = {0, 4096, 8192, 0, 4096, 8192};
  const auto r = simulate_lru(trace, 4096, 1u << 20);
  EXPECT_EQ(r.replacements, 0u);
  EXPECT_EQ(r.bytes_transferred, 0u);
  EXPECT_EQ(r.pages_touched, 3u);
  EXPECT_EQ(r.accesses, 6u);
}

TEST(PagingSimTest, LruEvictsLeastRecentlyUsed) {
  // Cache of 2 pages; touch A,B then A again, then C (evicts B), then B.
  const std::uint64_t A = 0, B = 4096, C = 8192;
  const std::uint64_t trace[] = {A, B, A, C, B};
  const auto r = simulate_lru(trace, 4096, 2 * 4096);
  // C misses at capacity (1 replacement: evicts B), B misses (evicts A).
  EXPECT_EQ(r.replacements, 2u);
  EXPECT_EQ(r.bytes_transferred, 2u * 4096u);
}

TEST(PagingSimTest, ColdFillsAreFree) {
  // The paper counts replacements only ("all pages are initially GPU
  // resident"): first touches below capacity are not charged.
  const std::uint64_t trace[] = {0, 4096, 8192, 12288};
  const auto r = simulate_lru(trace, 4096, 4 * 4096);
  EXPECT_EQ(r.replacements, 0u);
}

TEST(PagingSimTest, SmallerMemoryNeverReducesTransfers) {
  Rng rng(5);
  std::vector<std::uint64_t> trace;
  for (int i = 0; i < 20000; ++i) trace.push_back(rng.below(1u << 20));
  std::uint64_t prev = 0;
  for (const std::uint64_t mem :
       {1u << 20, 1u << 19, 1u << 18, 1u << 17, 1u << 16}) {
    const auto r = simulate_lru(trace, 4096, mem);
    EXPECT_GE(r.bytes_transferred, prev) << "memory " << mem;
    prev = r.bytes_transferred;
  }
}

TEST(PagingSimTest, LargerPagesTransferMoreBytesUnderRandomAccess) {
  Rng rng(6);
  std::vector<std::uint64_t> trace;
  for (int i = 0; i < 20000; ++i) trace.push_back(rng.below(1u << 22));
  const auto small = simulate_lru(trace, 4096, 1u << 20);
  const auto big = simulate_lru(trace, 64u << 10, 1u << 20);
  EXPECT_GT(big.bytes_transferred, small.bytes_transferred);
}

TEST(TracedTableTest, CountsLikeAReferenceMap) {
  TracedCombiningTable t(1u << 8);
  std::unordered_map<std::string, int> ref;
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "url-" + std::to_string(rng.below(300));
    t.insert_count(key);
    ref[key]++;
  }
  EXPECT_EQ(t.entry_count(), ref.size());
  EXPECT_GT(t.table_bytes(), (1u << 8) * 16u);  // bucket region + entries
  // Trace: every insert touches the bucket head at least.
  EXPECT_GE(t.trace().size(), 5000u);
}

}  // namespace
}  // namespace sepo::baselines
