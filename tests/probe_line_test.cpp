// Probe-line tests for core::SepoHashTable (DESIGN.md §5a): an insert that
// probes the bucket's cache line of newest-entry slots must find what a
// plain walk of the device chain finds and charge the same
// chain_links_walked and key_compare_bytes, in all three organizations —
// past the line's six slots, for two keys whose 16-bit fingerprints are
// equal, for keys too long for a slot's 16-bit length, and on a dry heap,
// where refused inserts postpone without the bucket lock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "core/hash_table.hpp"
#include "gpusim/fault.hpp"
#include "mapreduce/runtime.hpp"
#include "test_util.hpp"

namespace sepo::core {
namespace {

using test::Rig;
using test::as_u64;

// One bucket, so every key shares one chain; pages large enough for keys
// past the slot's 16-bit length.
HashTableConfig one_bucket(Organization org) {
  HashTableConfig cfg;
  cfg.org = org;
  cfg.num_buckets = 1;
  cfg.buckets_per_group = 1;
  cfg.page_size = 256u << 10;
  if (org == Organization::kCombining) cfg.combiner = combine_sum_u64;
  return cfg;
}

// The reference: the bucket's device chain as a list of keys, newest first,
// walked entry by entry the way the paper's table walks next_dev, plus the
// values each key should end up with.
class PlainWalk {
 public:
  explicit PlainWalk(Organization org) : org_(org) {}

  struct Walk {
    std::uint64_t links = 0;
    std::uint64_t bytes = 0;
    bool hit = false;
  };

  [[nodiscard]] Walk walk(std::string_view key) const {
    Walk w;
    for (const std::string& k : chain_) {
      ++w.links;
      w.bytes += std::min(k.size(), key.size());
      if (k == key) {
        w.hit = true;
        break;
      }
    }
    return w;
  }

  // Inserts <key, v> into `ht` and checks the walk the insert charged.
  void insert(Rig& rig, SepoHashTable& ht, const std::string& key,
              std::uint64_t v) {
    EXPECT_EQ(try_insert(rig, ht, key, v), Status::kSuccess);
  }

  // As insert(), but the heap may refuse the insert. A postponed insert
  // charges the same walk and locks, fails one allocation and, unless the
  // multi-valued key entry was allocated before its value was refused,
  // leaves the chain as it was.
  Status try_insert(Rig& rig, SepoHashTable& ht, const std::string& key,
                    std::uint64_t v) {
    const gpusim::StatsSnapshot before = rig.stats.snapshot();
    const Status st = ht.insert_u64(key, v);
    const gpusim::StatsSnapshot d = rig.stats.snapshot() - before;
    // The basic organization keeps duplicates and never probes.
    const Walk w = org_ == Organization::kBasic ? Walk{} : walk(key);
    EXPECT_EQ(d.chain_links_walked, w.links) << key.size() << "-byte key";
    EXPECT_EQ(d.key_compare_bytes, w.bytes) << key.size() << "-byte key";
    // The bucket lock once, plus the allocator's group lock per allocation.
    EXPECT_EQ(d.lock_acquires, 1 + d.alloc_ops);
    EXPECT_EQ(d.alloc_fails, st == Status::kPostpone ? 1u : 0u);
    if (st == Status::kSuccess || d.inserts_new != 0) {
      EXPECT_EQ(d.inserts_new, w.hit ? 0u : 1u);
    }
    if (d.inserts_new != 0) chain_.insert(chain_.begin(), key);
    if (st == Status::kSuccess) record(key, v);
    return st;
  }

  // A new iteration's device chains start empty (the last one flushed).
  void flush() { chain_.clear(); }

  // Records a successful insert in the expected table contents.
  void record(const std::string& key, std::uint64_t v) {
    sums_[key] += v;
    ++counts_[key];
  }

  // Checks find_resident's walk and the device chain's order against the
  // reference (KvEntry organizations only).
  void check_device_chain(Rig& rig, SepoHashTable& ht,
                          std::string_view missing) const {
    for (const std::string& k : chain_) check_find(rig, ht, k);
    check_find(rig, ht, missing);
    if (chain_.empty()) return;
    std::vector<std::string> device;
    for (const KvEntry* e = ht.find_resident(chain_.front()); e != nullptr;
         e = e->next_dev == gpusim::kDevNull
                 ? nullptr
                 : rig.dev.ptr<KvEntry>(e->next_dev))
      device.emplace_back(e->key());
    EXPECT_EQ(device, chain_);
  }

  // Checks the finalized table's contents against the reference.
  void check_result(const HostTable& t) const {
    std::map<std::string, std::uint64_t> sums, counts;
    const auto add = [&](std::string_view k, std::span<const std::byte> v) {
      sums[std::string(k)] += as_u64(v);
      ++counts[std::string(k)];
    };
    if (org_ == Organization::kMultiValued)
      t.for_each_group([&](std::string_view k, const auto& values) {
        for (const auto& v : values) add(k, v);
      });
    else
      t.for_each(add);
    EXPECT_EQ(sums, sums_);
    if (org_ != Organization::kCombining) {
      EXPECT_EQ(counts, counts_);
    }
  }

 private:
  void check_find(Rig& rig, SepoHashTable& ht, std::string_view key) const {
    const gpusim::StatsSnapshot before = rig.stats.snapshot();
    const KvEntry* e = ht.find_resident(key);
    const gpusim::StatsSnapshot d = rig.stats.snapshot() - before;
    const Walk w = walk(key);
    EXPECT_EQ(e != nullptr, w.hit);
    EXPECT_EQ(d.chain_links_walked, w.links);
    EXPECT_EQ(d.key_compare_bytes, w.bytes);
  }

  Organization org_;
  std::vector<std::string> chain_;  // newest first
  std::map<std::string, std::uint64_t> sums_;
  std::map<std::string, std::uint64_t> counts_;
};

// 20 keys of different lengths, so a hit's position shows in the compared
// bytes as well as the links.
std::vector<std::string> twenty_keys() {
  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i)
    keys.push_back("key-" + std::string(static_cast<std::size_t>(i % 7), 'x') +
                   std::to_string(i * 37));
  return keys;
}

// Fills a chain three times longer than the line's slots, hits every
// position (inside the slots, at their edge and past them), then starts a
// second iteration, whose chains must be empty again.
void check_long_chains(Organization org) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx, one_bucket(org));
  PlainWalk ref(org);
  const std::vector<std::string> keys = twenty_keys();
  for (int iteration = 0; iteration < 2; ++iteration) {
    ht.begin_iteration();
    for (std::size_t i = 0; i < keys.size(); ++i) ref.insert(rig, ht, keys[i], i);
    for (int round = 0; round < 2; ++round)
      for (std::size_t i = 0; i < keys.size(); ++i)
        ref.insert(rig, ht, keys[(i * 7) % keys.size()], round + 1);
    if (org != Organization::kMultiValued)
      ref.check_device_chain(rig, ht, "key-missing");
    // The basic organization keeps all 60 inserts as entries.
    const std::size_t len = org == Organization::kBasic ? 60 : 20;
    EXPECT_EQ(ht.resident_chain_histogram(64)[len], 1u);
    ht.end_iteration();
    ref.flush();
  }
  ref.check_result(ht.finalize());
}

TEST(ProbeLineTest, CombiningChainPastTheSlotsMatchesPlainWalk) {
  check_long_chains(Organization::kCombining);
}

TEST(ProbeLineTest, MultiValuedChainPastTheSlotsMatchesPlainWalk) {
  check_long_chains(Organization::kMultiValued);
}

TEST(ProbeLineTest, BasicChainPastTheSlotsKeepsEveryInsert) {
  check_long_chains(Organization::kBasic);
}

// Two keys of one length whose fingerprints are equal: the slot's tag and
// length both match, so only the key bytes can tell them apart.
std::pair<std::string, std::string> equal_tag_keys() {
  std::map<std::uint16_t, std::string> seen;
  for (int i = 0;; ++i) {
    std::string k = "tag-" + std::to_string(100000 + i);
    const auto [it, fresh] = seen.emplace(fingerprint(hash_key(k)), k);
    if (!fresh) return {it->second, k};
  }
}

void check_equal_tags(Organization org) {
  const auto [a, b] = equal_tag_keys();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(fingerprint(hash_key(a)), fingerprint(hash_key(b)));
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx, one_bucket(org));
  PlainWalk ref(org);
  ht.begin_iteration();
  ref.insert(rig, ht, a, 1);
  ref.insert(rig, ht, b, 10);  // a tag match, then a miss
  ref.insert(rig, ht, a, 2);
  ref.insert(rig, ht, b, 20);
  // Push both past the slots, then hit them there.
  for (int i = 0; i < 6; ++i) ref.insert(rig, ht, "filler-" + std::to_string(i), 1);
  ref.insert(rig, ht, a, 3);
  ref.insert(rig, ht, b, 30);
  if (org == Organization::kCombining) ref.check_device_chain(rig, ht, "x");
  ht.end_iteration();
  ref.check_result(ht.finalize());
}

TEST(ProbeLineTest, CombiningEqualTagsStayDistinct) {
  check_equal_tags(Organization::kCombining);
}

TEST(ProbeLineTest, MultiValuedEqualTagsStayDistinct) {
  check_equal_tags(Organization::kMultiValued);
}

// Keys at and past 0xffff bytes keep a sentinel length in their slot; the
// probe reads their real length from the entry.
void check_long_keys(Organization org) {
  std::vector<std::string> keys = {std::string(0xfffe, 'k'),
                                   std::string(0xffff, 'k'),
                                   std::string(70000, 'k'),
                                   std::string(70000, 'k') + "?"};
  keys[3].erase(keys[3].size() - 2, 1);  // same length as keys[2]
  ASSERT_EQ(keys[2].size(), keys[3].size());
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx, one_bucket(org));
  PlainWalk ref(org);
  ht.begin_iteration();
  for (const std::string& k : keys) ref.insert(rig, ht, k, 1);
  for (const std::string& k : keys) ref.insert(rig, ht, k, 2);
  ref.insert(rig, ht, "short", 1);
  ref.insert(rig, ht, std::string(0xffff, 'j'), 1);  // a miss on a long key
  for (int i = 0; i < 6; ++i) ref.insert(rig, ht, "filler-" + std::to_string(i), 1);
  for (const std::string& k : keys) ref.insert(rig, ht, k, 4);  // past slots
  if (org == Organization::kCombining)
    ref.check_device_chain(rig, ht, std::string(70000, 'j'));
  ht.end_iteration();
  ref.check_result(ht.finalize());
}

TEST(ProbeLineTest, CombiningKeysPastSlotLengthMatchPlainWalk) {
  check_long_keys(Organization::kCombining);
}

TEST(ProbeLineTest, MultiValuedKeysPastSlotLengthMatchPlainWalk) {
  check_long_keys(Organization::kMultiValued);
}

TEST(ProbeLineTest, BasicKeysPastSlotLengthKeepEveryInsert) {
  check_long_keys(Organization::kBasic);
}

// A one-bucket table on a heap of three 1 KiB pages runs dry in its first
// pass. Every insert, postponed or not, must charge the plain walk and one
// bucket acquire plus one per allocation, whether the refusal came from the
// locked allocator or from a dry slot without any lock; then the postponed
// records, retried pass by pass as the SEPO driver does, must all land.
void check_dry_heap(Organization org) {
  Rig rig(8u << 20);
  HashTableConfig cfg = one_bucket(org);
  cfg.page_size = 1u << 10;
  cfg.heap_bytes = 3u << 10;
  SepoHashTable ht(rig.ctx, cfg);
  PlainWalk ref(org);
  // 200 keys, about three times what one pass holds, four times each in a
  // different order.
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i)
    keys.push_back("key-" + std::string(static_cast<std::size_t>(i % 7), 'x') +
                   std::to_string(i * 37));
  std::vector<std::pair<std::string, std::uint64_t>> todo;
  for (std::uint64_t round = 0; round < 4; ++round)
    for (std::size_t i = 0; i < keys.size(); ++i)
      todo.emplace_back(keys[(i * 7 + round) % keys.size()], round * 1000 + i);
  std::uint32_t passes = 0;
  while (!todo.empty()) {
    ASSERT_LT(++passes, 100u);
    ht.begin_iteration();
    std::vector<std::pair<std::string, std::uint64_t>> left;
    for (const auto& [k, v] : todo) {
      // Only the first pass starts from an empty chain (a multi-valued
      // table keeps pending keys resident), so only it is walked here.
      const Status st = passes == 1 ? ref.try_insert(rig, ht, k, v)
                                    : ht.insert_u64(k, v);
      if (st == Status::kPostpone) left.emplace_back(k, v);
      if (passes > 1 && st == Status::kSuccess) ref.record(k, v);
    }
    if (passes == 1) {
      EXPECT_GT(left.size(), todo.size() / 2);
    }
    ht.end_iteration();
    ref.flush();
    todo = std::move(left);
  }
  EXPECT_GT(passes, 2u);
  ref.check_result(ht.finalize());
}

TEST(ProbeLineTest, CombiningDryHeapKeepsPerInsertCounts) {
  check_dry_heap(Organization::kCombining);
}

TEST(ProbeLineTest, MultiValuedDryHeapKeepsPerInsertCounts) {
  check_dry_heap(Organization::kMultiValued);
}

TEST(ProbeLineTest, BasicDryHeapKeepsPerInsertCounts) {
  check_dry_heap(Organization::kBasic);
}

// ---- The dry heap across passes ----

// A pressure spike seizes the whole heap for one pass: the first insert
// finds the pool empty and dries the slot, the next is refused by the dry
// slot, and once the spike ends the next pass allocates again.
TEST(DryHeapTest, SlotAllocatesAgainAfterAPressureSpikeEnds) {
  Rig rig(8u << 20);
  gpusim::FaultConfig fc;
  fc.pressure_rate = 1.0;
  fc.pressure_frac = 1.0;
  fc.pressure_hold_iterations = 1;
  gpusim::FaultInjector faults(fc);
  rig.ctx.set_faults(&faults);
  HashTableConfig cfg = one_bucket(Organization::kCombining);
  cfg.page_size = 1u << 10;
  cfg.heap_bytes = 4u << 10;
  SepoHashTable ht(rig.ctx, cfg);
  const alloc::BucketGroupAllocator& heap = ht.allocator();

  ht.begin_iteration();
  EXPECT_EQ(ht.pressure_page_count(), 4u);
  EXPECT_EQ(ht.insert_u64("a", 1), Status::kPostpone);
  EXPECT_TRUE(heap.refuses(0, alloc::PageClass::kGeneric, 8));
  EXPECT_EQ(ht.insert_u64("b", 2), Status::kPostpone);
  ht.end_iteration();

  ht.begin_iteration();
  EXPECT_EQ(ht.pressure_page_count(), 0u);
  EXPECT_FALSE(heap.refuses(0, alloc::PageClass::kGeneric, 8));
  EXPECT_EQ(ht.insert_u64("a", 1), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("b", 2), Status::kSuccess);
  ht.end_iteration();

  const HostTable t = ht.finalize();
  std::map<std::string, std::uint64_t> got;
  t.for_each([&](std::string_view k, std::span<const std::byte> v) {
    got[std::string(k)] += as_u64(v);
  });
  EXPECT_EQ(got, (std::map<std::string, std::uint64_t>{{"a", 1}, {"b", 2}}));
  EXPECT_EQ(rig.stats.snapshot().alloc_fails, 2u);
}

// "value key" records grouped by key (MAP_GROUP, the multi-valued
// organization) by four workers on a heap about a sixth of the table: most
// inserts in each pass are refused, many by dry slots without a lock, and
// every value must still land under its key exactly once.
TEST(DryHeapTest, MapGroupAtFourWorkersMatchesReference) {
  Rig rig(2u << 20, /*workers=*/4);
  mapreduce::RuntimeConfig cfg;
  cfg.pipeline.records_per_chunk = 256;
  cfg.pipeline.max_chunk_bytes = 16u << 10;
  cfg.pipeline.num_staging_buffers = 2;
  cfg.table.num_buckets = 1u << 10;
  cfg.table.buckets_per_group = 512;
  cfg.table.page_size = 2u << 10;
  cfg.table.heap_bytes = 32u << 10;
  mapreduce::MapReduceRuntime runtime(rig.ctx, cfg);

  std::string input;
  std::map<std::string, std::multiset<std::string>> ref;
  for (int i = 0; i < 6000; ++i) {
    const std::string v = "v" + std::to_string(i);
    const std::string k = "k" + std::to_string((i * 7919) % 300);
    input += v + ' ' + k + '\n';
    ref[k].insert(v);
  }
  const auto map_pairs = [](std::string_view record,
                            mapreduce::Emitter& em) {
    const std::size_t sp = record.find(' ');
    (void)em.emit(record.substr(sp + 1),
                  std::as_bytes(std::span{record.data(), sp}));
  };
  const mapreduce::RunOutcome out = runtime.run(
      input, {.mode = mapreduce::Mode::kMapGroup, .map = map_pairs});
  EXPECT_GT(out.driver.iterations, 4u);
  EXPECT_GT(out.driver.profiles.back().flushed_bytes_total,
            4 * cfg.table.heap_bytes);

  std::map<std::string, std::multiset<std::string>> got;
  out.table->for_each_group(
      [&](std::string_view k,
          const std::vector<std::span<const std::byte>>& vals) {
        for (const auto& v : vals)
          got[std::string(k)].insert(test::bytes_to_string(v));
      });
  ASSERT_EQ(got.size(), ref.size());
  for (const auto& [k, vals] : ref) EXPECT_EQ(got[k], vals) << k;
}

}  // namespace
}  // namespace sepo::core
