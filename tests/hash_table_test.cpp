// Unit tests for core::SepoHashTable: single-iteration behaviour of the
// three bucket organizations (paper §IV-B), POSTPONE semantics, and the
// host-table view after finalize.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "alloc/bucket_group_allocator.hpp"
#include "alloc/page_pool.hpp"
#include "apps/harness.hpp"
#include "core/hash_table.hpp"
#include "gpusim/launch.hpp"
#include "test_util.hpp"

namespace sepo::core {
namespace {

using test::Rig;
using test::as_u64;
using test::bytes_of;

HashTableConfig small_cfg(Organization org) {
  HashTableConfig cfg;
  cfg.org = org;
  cfg.num_buckets = 1u << 10;
  cfg.buckets_per_group = 32;
  cfg.page_size = 4u << 10;
  if (org == Organization::kCombining) cfg.combiner = combine_sum_u64;
  return cfg;
}

TEST(HashTableConfigTest, RejectsNonPowerOfTwoBuckets) {
  Rig rig(4u << 20);
  auto cfg = small_cfg(Organization::kBasic);
  cfg.num_buckets = 1000;
  EXPECT_THROW(SepoHashTable(rig.ctx, cfg),
               std::invalid_argument);
}

TEST(HashTableConfigTest, RejectsCombiningWithoutCombiner) {
  Rig rig(4u << 20);
  auto cfg = small_cfg(Organization::kCombining);
  cfg.combiner = nullptr;
  EXPECT_THROW(SepoHashTable(rig.ctx, cfg),
               std::invalid_argument);
}

TEST(HashTableConfigTest, RejectsZeroBucketsPerGroup) {
  Rig rig(4u << 20);
  auto cfg = small_cfg(Organization::kBasic);
  cfg.buckets_per_group = 0;
  EXPECT_THROW(SepoHashTable(rig.ctx, cfg),
               std::invalid_argument);
}

TEST(HashTableConfigTest, HeapTakesAllRemainingMemory) {
  Rig rig(8u << 20);
  auto cfg = small_cfg(Organization::kBasic);
  SepoHashTable ht(rig.ctx, cfg);
  // Heap pages cover (almost all) remaining memory after static structures.
  EXPECT_GT(ht.page_pool().heap_bytes(), (8u << 20) / 2);
}

TEST(CombiningTest, DuplicateKeysAreSummed) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  EXPECT_EQ(ht.insert_u64("alpha", 1), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("alpha", 2), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("beta", 7), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.lookup_u64("alpha"), 3u);
  EXPECT_EQ(t.lookup_u64("beta"), 7u);
  EXPECT_EQ(t.lookup_u64("gamma"), std::nullopt);
  EXPECT_EQ(t.entry_count(), 2u);
}

TEST(CombiningTest, CombineCountersAreRecorded) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  for (int i = 0; i < 10; ++i) ASSERT_EQ(ht.insert_u64("k", 1), Status::kSuccess);
  const auto s = rig.stats.snapshot();
  EXPECT_EQ(s.inserts_new, 1u);
  EXPECT_EQ(s.combines, 9u);
  EXPECT_EQ(s.hash_ops, 10u);
}

// Inserts 300 records over 150 distinct keys and checks the resident chain
// histogram mid-iteration (end_iteration flushes pages and empties chains):
// every bucket is counted once, and the chains hold `want_entries` entries.
void check_resident_chain_histogram(Organization org,
                                    std::uint64_t want_entries) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx, small_cfg(org));
  ht.begin_iteration();
  for (int i = 0; i < 300; ++i)
    ASSERT_EQ(ht.insert_u64("key" + std::to_string(i % 150), 1),
              Status::kSuccess);
  const auto hist = ht.resident_chain_histogram();
  ASSERT_FALSE(hist.empty());
  std::uint64_t buckets = 0, entries = 0;
  for (std::size_t len = 0; len < hist.size(); ++len) {
    buckets += hist[len];
    entries += hist[len] * len;  // last bin aggregates: lower bound
  }
  EXPECT_EQ(buckets, (1u << 10));    // every bucket accounted for
  EXPECT_EQ(entries, want_entries);  // all chains shorter than the last bin
}

TEST(CombiningTest, ResidentChainHistogramCoversEntries) {
  check_resident_chain_histogram(Organization::kCombining, 150);
}

TEST(BasicTest, ResidentChainHistogramCoversEntries) {
  // Duplicate keys stay separate entries.
  check_resident_chain_histogram(Organization::kBasic, 300);
}

TEST(MultiValuedTest, ResidentChainHistogramCoversEntries) {
  // Chains hold one key entry per distinct key; values hang off it.
  check_resident_chain_histogram(Organization::kMultiValued, 150);
}

TEST(BasicTest, DuplicateKeysKeptSeparately) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kBasic));
  ht.begin_iteration();
  EXPECT_EQ(ht.insert_u64("dup", 1), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("dup", 2), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("dup", 3), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  const auto all = t.lookup_all("dup");
  ASSERT_EQ(all.size(), 3u);
  std::multiset<std::uint64_t> vals;
  for (const auto& v : all) vals.insert(as_u64(v));
  EXPECT_EQ(vals, (std::multiset<std::uint64_t>{1, 2, 3}));
}

TEST(BasicTest, NoProbeWorkOnInsert) {
  // The basic organization never traverses the chain on insert.
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kBasic));
  ht.begin_iteration();
  for (int i = 0; i < 100; ++i) ASSERT_EQ(ht.insert_u64("same-key", 1), Status::kSuccess);
  EXPECT_EQ(rig.stats.snapshot().key_compare_bytes, 0u);
  EXPECT_EQ(rig.stats.snapshot().chain_links_walked, 0u);
}

TEST(MultiValuedTest, ValuesGroupUnderOneKey) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kMultiValued));
  ht.begin_iteration();
  auto ins = [&](std::string_view k, std::string_view v) {
    return ht.insert(k, std::as_bytes(std::span{v.data(), v.size()}));
  };
  EXPECT_EQ(ins("http://google.com", "a.html"), Status::kSuccess);
  EXPECT_EQ(ins("http://google.com", "c.html"), Status::kSuccess);
  EXPECT_EQ(ins("http://google.com", "d.html"), Status::kSuccess);
  EXPECT_EQ(ins("http://other.org", "b.html"), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.value_count(), 4u);
  const auto grp = t.lookup_group("http://google.com");
  ASSERT_TRUE(grp.has_value());
  std::multiset<std::string> vals;
  for (const auto& v : *grp) vals.insert(test::bytes_to_string(v));
  EXPECT_EQ(vals, (std::multiset<std::string>{"a.html", "c.html", "d.html"}));
}

TEST(MultiValuedTest, MissingKeyGroupLookupIsNull) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kMultiValued));
  ht.begin_iteration();
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_FALSE(t.lookup_group("absent").has_value());
  EXPECT_EQ(t.value_count(), 0u);
}

TEST(PostponeTest, InsertPostponesWhenHeapExhausted) {
  // Tiny heap: two pages only.
  Rig rig(1u << 20);
  HashTableConfig cfg = small_cfg(Organization::kBasic);
  cfg.num_buckets = 64;
  cfg.buckets_per_group = 64;  // one group -> one active page
  cfg.page_size = 1u << 10;
  cfg.heap_bytes = 2u << 10;
  SepoHashTable ht(rig.ctx, cfg);
  ht.begin_iteration();
  int successes = 0, postpones = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    (ht.insert_u64(key, 1) == Status::kSuccess ? successes : postpones)++;
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(postpones, 0);
  EXPECT_EQ(ht.free_pages(), 0u);
  EXPECT_GE(ht.allocator().postponed_groups(), 1u);
  EXPECT_TRUE(ht.should_halt(0.5));
  const auto s = rig.stats.snapshot();
  EXPECT_EQ(s.alloc_fails, static_cast<std::uint64_t>(postpones));
}

TEST(PostponeTest, CombiningStillCombinesAfterHeapFull) {
  // Paper Figure 5 (c): "even after all pages get full, pairs with duplicate
  // keys are still stored in the hash table".
  Rig rig(1u << 20);
  HashTableConfig cfg = small_cfg(Organization::kCombining);
  cfg.num_buckets = 64;
  cfg.buckets_per_group = 64;
  cfg.page_size = 1u << 10;
  cfg.heap_bytes = 1u << 10;  // one page
  SepoHashTable ht(rig.ctx, cfg);
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("resident", 1), Status::kSuccess);
  // Exhaust the heap with unique keys.
  int postponed = 0;
  for (int i = 0; i < 200; ++i)
    if (ht.insert_u64("filler-" + std::to_string(i), 1) == Status::kPostpone)
      ++postponed;
  ASSERT_GT(postponed, 0);
  // Duplicate of the resident key still succeeds.
  EXPECT_EQ(ht.insert_u64("resident", 41), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.lookup_u64("resident"), 42u);
}

TEST(VariableLengthTest, KeysAndValuesOfManySizes) {
  Rig rig(16u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kBasic));
  ht.begin_iteration();
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 300; ++i) {
    std::string key(1 + (i * 7) % 120, static_cast<char>('a' + i % 26));
    key += std::to_string(i);
    std::string val((i * 13) % 200, static_cast<char>('A' + i % 26));
    ref[key] = val;
    ASSERT_EQ(ht.insert(key, std::as_bytes(std::span{val.data(), val.size()})),
              Status::kSuccess);
  }
  ht.end_iteration();
  const HostTable t = ht.finalize();
  for (const auto& [k, v] : ref) {
    const auto got = t.lookup(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(test::bytes_to_string(*got), v);
  }
}

// 20000 inserts of the value 1 over 37 keys from every pool worker: heavy
// duplication, so heavy lock contention on a few buckets.
constexpr std::size_t kParallelInserts = 20000;
constexpr std::size_t kParallelKeys = 37;

void insert_in_parallel(Rig& rig, SepoHashTable& ht) {
  ht.begin_iteration();
  gpusim::launch(rig.pool, rig.stats, kParallelInserts, [&](std::size_t i) {
    const std::string key = "key-" + std::to_string(i % kParallelKeys);
    ASSERT_EQ(ht.insert_u64(key, 1), Status::kSuccess);
  });
  ht.end_iteration();
}

TEST(ConcurrencyTest, ParallelCombiningMatchesSerialSum) {
  Rig rig(32u << 20);
  SepoHashTable ht(rig.ctx, small_cfg(Organization::kCombining));
  insert_in_parallel(rig, ht);
  const HostTable t = ht.finalize();
  std::uint64_t total = 0;
  t.for_each([&](std::string_view, std::span<const std::byte> v) {
    total += as_u64(v);
  });
  EXPECT_EQ(total, kParallelInserts);
  EXPECT_EQ(t.entry_count(), kParallelKeys);
}

TEST(ConcurrencyTest, ParallelBasicKeepsEveryInsert) {
  Rig rig(32u << 20);
  SepoHashTable ht(rig.ctx, small_cfg(Organization::kBasic));
  insert_in_parallel(rig, ht);
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.entry_count(), kParallelInserts);
  std::set<std::string> keys;
  t.for_each([&](std::string_view k, std::span<const std::byte>) {
    keys.emplace(k);
  });
  EXPECT_EQ(keys.size(), kParallelKeys);
}

TEST(ConcurrencyTest, ParallelMultiValuedGroupsEveryValue) {
  Rig rig(32u << 20);
  SepoHashTable ht(rig.ctx, small_cfg(Organization::kMultiValued));
  insert_in_parallel(rig, ht);
  const HostTable t = ht.finalize();
  std::size_t groups = 0, values = 0;
  t.for_each_group([&](std::string_view,
                       const std::vector<std::span<const std::byte>>& vs) {
    ++groups;
    values += vs.size();
  });
  EXPECT_EQ(groups, kParallelKeys);
  EXPECT_EQ(values, kParallelInserts);
  EXPECT_EQ(t.value_count(), kParallelInserts);
}

TEST(FindResidentTest, FindsOnlyResidentEntries) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("here", 5), Status::kSuccess);
  const KvEntry* e = ht.find_resident("here");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key(), "here");
  EXPECT_EQ(ht.find_resident("gone"), nullptr);
  // After a flush the entry is no longer device-resident.
  ht.end_iteration();
  ht.begin_iteration();
  EXPECT_EQ(ht.find_resident("here"), nullptr);
}

TEST(FindResidentTest, ThrowsOnMultiValued) {
  // A multi-valued chain holds KeyEntry records, which a KvEntry* cannot
  // name: the lookup refuses rather than misread a resident key as absent.
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx, small_cfg(Organization::kMultiValued));
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("here", 5), Status::kSuccess);
  EXPECT_THROW((void)ht.find_resident("here"), std::logic_error);
}

TEST(TableStatsTest, TracksResidentAndFlushedBytes) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("a", 1), Status::kSuccess);
  auto s1 = ht.table_stats();
  EXPECT_GT(s1.resident_entry_bytes, 0u);
  EXPECT_EQ(s1.flushed_bytes, 0u);
  ht.end_iteration();
  auto s2 = ht.table_stats();
  EXPECT_EQ(s2.resident_entry_bytes, 0u);
  EXPECT_EQ(s2.flushed_bytes, s1.resident_entry_bytes);
  EXPECT_EQ(s2.table_bytes, s1.table_bytes);
}

// The allocator's per-(group, class) slots and the page pool's per-page
// metadata are padded to a cache line on the host. The padding must stay host
// layout: a default-config table on the default 4 MiB device charges the
// device exactly what it did with the packed layout, so the simulated heap
// never shrinks.
TEST(HostLayoutGuardTest, PaddingIsHostOnly) {
  static_assert(alignof(alloc::BucketGroupAllocator::Slot) ==
                gpusim::kCacheLineBytes);
  static_assert(alignof(alloc::PagePool::PageMeta) == gpusim::kCacheLineBytes);
  Rig rig(4u << 20);
  HashTableConfig cfg;
  cfg.combiner = combine_sum_u64;
  SepoHashTable ht(rig.ctx, cfg);
  EXPECT_EQ(rig.dev.static_used(), 4186176u);
  EXPECT_EQ(ht.page_pool().heap_bytes(), 3858432u);
}

// ---- HostTable finalize walk: parallel ranges match the serial walk ----

// Everything a reader can observe of a finalized table, in visit order.
struct FinalizedView {
  std::vector<std::string> visit;  // for_each / for_each_group, in order
  std::size_t keys = 0;
  std::size_t values = 0;
  std::size_t merged = 0;
  std::vector<std::uint64_t> hist4, hist16;
  std::uint64_t digest = 0;         // HostTable overload (per-range sums)
  std::uint64_t serial_digest = 0;  // generic for_each digest
  std::vector<std::string> lookups;
};

// Exposes only for_each / for_each_group, so the generic digest templates
// (one sum on the calling thread) run over the same table.
struct SerialVisit {
  const HostTable& t;
  template <typename Fn>
  void for_each(const Fn& fn) const { t.for_each(fn); }
  template <typename Fn>
  void for_each_group(const Fn& fn) const { t.for_each_group(fn); }
};

std::string group_string(std::string_view key,
                         const std::vector<std::span<const std::byte>>& vals) {
  std::string s(key);
  for (const auto& v : vals) s += "|" + test::bytes_to_string(v);
  return s;
}

// Fills a table of organization `org` with the same records over three
// iterations, serially on the calling thread so chain order does not depend
// on the pool; keys recur across iterations, so flushed entries come back as
// duplicates. Then finalizes it on a pool of `workers` workers.
FinalizedView finalize_at(Organization org, std::size_t workers,
                          std::size_t records) {
  Rig rig(8u << 20, workers);
  HashTableConfig cfg = small_cfg(org);
  cfg.num_buckets = 1u << 12;  // 16 bucket ranges
  cfg.buckets_per_group = 256;
  SepoHashTable ht(rig.ctx, cfg);
  for (std::size_t it = 0; it < 3; ++it) {
    ht.begin_iteration();
    for (std::size_t i = 0; i < records; ++i) {
      const std::string key = "k" + std::to_string((i * 7 + it * 131) % 2500);
      const std::uint64_t v = i + it * records;
      EXPECT_EQ(ht.insert(key, bytes_of(v)), Status::kSuccess);
    }
    ht.end_iteration();
  }
  const HostTable t = ht.finalize();

  FinalizedView view;
  const bool grouped = org == Organization::kMultiValued;
  if (grouped) {
    t.for_each_group([&](std::string_view k, const auto& vals) {
      view.visit.push_back(group_string(k, vals));
    });
    view.digest = apps::digest_groups(t);
    view.serial_digest = apps::digest_groups(SerialVisit{t});
  } else {
    t.for_each([&](std::string_view k, std::span<const std::byte> v) {
      view.visit.push_back(std::string(k) + "=" +
                           std::to_string(test::as_u64(v)));
    });
    view.digest = apps::digest_kv(t);
    view.serial_digest = apps::digest_kv(SerialVisit{t});
  }
  view.keys = t.entry_count();
  view.values = t.value_count();
  view.merged = t.merged_duplicates();
  view.hist4 = t.occupancy_histogram(4);
  view.hist16 = t.occupancy_histogram(16);
  for (const char* k : {"k0", "k7", "k131", "k2499", "absent"}) {
    if (grouped) {
      const auto g = t.lookup_group(k);
      view.lookups.push_back(g ? group_string(k, *g) : "-");
    } else {
      const auto v = t.lookup(k);
      view.lookups.push_back(v ? std::to_string(test::as_u64(*v)) : "-");
    }
  }
  return view;
}

void expect_serial_equals_parallel(Organization org, std::size_t records) {
  const FinalizedView one = finalize_at(org, 1, records);
  const FinalizedView four = finalize_at(org, 4, records);
  EXPECT_EQ(one.visit, four.visit);
  EXPECT_EQ(one.keys, four.keys);
  EXPECT_EQ(one.values, four.values);
  EXPECT_EQ(one.merged, four.merged);
  EXPECT_EQ(one.hist4, four.hist4);
  EXPECT_EQ(one.hist16, four.hist16);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.lookups, four.lookups);
  // The per-range sum is the same number as one sum over every entry.
  EXPECT_EQ(one.digest, one.serial_digest);
  EXPECT_EQ(four.digest, four.serial_digest);
  // Recorded counts agree with what a reader visits.
  EXPECT_EQ(one.keys, one.visit.size());
  std::uint64_t histogram_keys = 0;
  for (std::size_t n = 0; n < one.hist16.size(); ++n)
    histogram_keys += n * one.hist16[n];
  if (one.hist16.back() == 0) {
    EXPECT_EQ(histogram_keys, one.keys);
  }
}

TEST(HostTableFinalizeTest, BasicMatchesSerialWalk) {
  expect_serial_equals_parallel(Organization::kBasic, 2000);
  EXPECT_EQ(finalize_at(Organization::kBasic, 4, 2000).keys, 6000u);
}

TEST(HostTableFinalizeTest, CombiningMatchesSerialWalk) {
  expect_serial_equals_parallel(Organization::kCombining, 2000);
  const FinalizedView v = finalize_at(Organization::kCombining, 4, 2000);
  EXPECT_GT(v.merged, 0u);  // flushed keys came back as duplicates
  EXPECT_EQ(v.keys + v.merged, 6000u);
}

TEST(HostTableFinalizeTest, MultiValuedMatchesSerialWalk) {
  expect_serial_equals_parallel(Organization::kMultiValued, 2000);
  const FinalizedView v = finalize_at(Organization::kMultiValued, 4, 2000);
  EXPECT_GT(v.merged, 0u);
  EXPECT_EQ(v.values, 6000u);
}

TEST(HostTableFinalizeTest, EmptyTableMatchesSerialWalk) {
  for (const Organization org :
       {Organization::kBasic, Organization::kCombining,
        Organization::kMultiValued}) {
    expect_serial_equals_parallel(org, 0);
    const FinalizedView v = finalize_at(org, 4, 0);
    EXPECT_EQ(v.keys, 0u);
    EXPECT_EQ(v.values, 0u);
    EXPECT_EQ(v.hist16[0], 1u << 12);
  }
}

}  // namespace
}  // namespace sepo::core
