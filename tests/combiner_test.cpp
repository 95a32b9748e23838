// Unit tests for the built-in combiners (core/entry_layout.hpp): their
// semantics, the store-on-change contract of CombineFn, both chained tables
// combining one saturated key from four pool workers, and the SEPO table
// combining one hot key whose every combine stores.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>

#include "baselines/chained_host_table.hpp"
#include "core/entry_layout.hpp"
#include "core/hash_table.hpp"
#include "gpusim/launch.hpp"
#include "test_util.hpp"

namespace sepo::core {
namespace {

using test::Rig;

// Applies `fn` to `existing` and returns the value it leaves.
template <typename T>
T combined(CombineFn fn, T existing, T incoming) {
  fn(reinterpret_cast<std::byte*>(&existing),
     reinterpret_cast<const std::byte*>(&incoming), sizeof(T));
  return existing;
}

TEST(CombinerTest, OrU32SetsTheUnionOfBits) {
  EXPECT_EQ(combined<std::uint32_t>(combine_or_u32, 0b0101, 0b0011), 0b0111u);
  EXPECT_EQ(combined<std::uint32_t>(combine_or_u32, 0b0111, 0b0010), 0b0111u);
  EXPECT_EQ(combined<std::uint32_t>(combine_or_u32, 0, 0xFFFFFFFFu),
            0xFFFFFFFFu);
}

TEST(CombinerTest, SumU64AddsModuloTwoToThe64) {
  EXPECT_EQ(combined<std::uint64_t>(combine_sum_u64, 40, 2), 42u);
  EXPECT_EQ(combined<std::uint64_t>(combine_sum_u64, 7, 0), 7u);
  EXPECT_EQ(combined<std::uint64_t>(combine_sum_u64, ~std::uint64_t{0}, 2),
            1u);
}

TEST(CombinerTest, MaxU64KeepsTheLarger) {
  EXPECT_EQ(combined<std::uint64_t>(combine_max_u64, 3, 9), 9u);
  EXPECT_EQ(combined<std::uint64_t>(combine_max_u64, 9, 3), 9u);
  EXPECT_EQ(combined<std::uint64_t>(combine_max_u64, 9, 9), 9u);
}

TEST(CombinerTest, SumF64AddsAndKeepsSignedZeroAndNaN) {
  EXPECT_EQ(combined(combine_sum_f64, 1.5, 2.25), 3.75);
  // -0.0 + +0.0 is +0.0: equal in value to the existing -0.0, but other
  // bytes, so it must be stored.
  const double zero = combined(combine_sum_f64, -0.0, 0.0);
  EXPECT_EQ(zero, 0.0);
  EXPECT_FALSE(std::signbit(zero));
  EXPECT_TRUE(std::signbit(combined(combine_sum_f64, -0.0, -0.0)));
  // A NaN input is stored, whichever side it comes from.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(combined(combine_sum_f64, 1.0, nan)));
  EXPECT_TRUE(std::isnan(combined(combine_sum_f64, nan, 1.0)));
  EXPECT_TRUE(std::isnan(combined(
      combine_sum_f64, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity())));
}

// A no-op combine must leave the existing value's memory untouched: the value
// sits on a page that is read-only while the combiner runs, so a store, even
// of the same bytes, faults and kills the test.
class ReadOnlyValue {
 public:
  ReadOnlyValue() {
    page_ = ::sysconf(_SC_PAGESIZE);
    mem_ = ::mmap(nullptr, page_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  }
  ~ReadOnlyValue() {
    if (mem_ != MAP_FAILED) ::munmap(mem_, page_);
  }
  ReadOnlyValue(const ReadOnlyValue&) = delete;
  ReadOnlyValue& operator=(const ReadOnlyValue&) = delete;

  // Writes `existing`, makes the page read-only, combines `incoming` into it
  // and returns the value read back. `existing` is written at the end of the
  // page, so the combiner sees exactly its bytes and nothing after them.
  template <typename T>
  T combine(CombineFn fn, T existing, T incoming) {
    EXPECT_NE(mem_, MAP_FAILED);
    EXPECT_EQ(::mprotect(mem_, page_, PROT_READ | PROT_WRITE), 0);
    auto* slot = static_cast<std::byte*>(mem_) + page_ - sizeof(T);
    std::memcpy(slot, &existing, sizeof(T));
    EXPECT_EQ(::mprotect(mem_, page_, PROT_READ), 0);
    fn(slot, reinterpret_cast<const std::byte*>(&incoming), sizeof(T));
    T out;
    std::memcpy(&out, slot, sizeof(T));
    return out;
  }

 private:
  long page_ = 0;
  void* mem_ = MAP_FAILED;
};

TEST(CombinerTest, NoOpCombinesNeverStore) {
  ReadOnlyValue v;
  EXPECT_EQ(v.combine<std::uint32_t>(combine_or_u32, 0b1011, 0b0010), 0b1011u);
  EXPECT_EQ(v.combine<std::uint32_t>(combine_or_u32, 0b1011, 0), 0b1011u);
  EXPECT_EQ(v.combine<std::uint64_t>(combine_sum_u64, 17, 0), 17u);
  EXPECT_EQ(v.combine(combine_sum_f64, 2.5, 0.0), 2.5);
  EXPECT_EQ(v.combine(combine_sum_f64, 2.5, -0.0), 2.5);
  EXPECT_EQ(v.combine<std::uint64_t>(combine_max_u64, 17, 4), 17u);
  EXPECT_EQ(v.combine<std::uint64_t>(combine_max_u64, 17, 17), 17u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v.combine(combine_sum_f64, nan, 1.0)),
            std::bit_cast<std::uint64_t>(nan));
}

// ---- both chained tables: one saturated key from four pool workers ----

// Every insert ORs one of the four low bits into a key whose value already
// holds all four, so every one is a combine and none changes the value.
constexpr std::size_t kSaturatedInserts = 20000;
constexpr std::uint32_t kSaturated = 0xF;

std::uint32_t low_bit(std::size_t i) { return 1u << (i % 4); }

std::span<const std::byte> bytes_of(const std::uint32_t& v) {
  return std::as_bytes(std::span{&v, 1});
}

std::uint32_t as_u32(std::span<const std::byte> b) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data(), sizeof v);
  return v;
}

TEST(CombinerConcurrencyTest, SepoTableCombinesSaturatedKeyExactly) {
  Rig rig(32u << 20, /*workers=*/4);
  HashTableConfig cfg;
  cfg.num_buckets = 1u << 10;
  cfg.buckets_per_group = 32;
  cfg.page_size = 4u << 10;
  cfg.combiner = combine_or_u32;
  SepoHashTable ht(rig.ctx, cfg);
  ht.begin_iteration();
  ASSERT_EQ(ht.insert("dna", bytes_of(kSaturated)), Status::kSuccess);
  const std::uint64_t before = rig.stats.snapshot().combines;
  gpusim::launch(rig.pool, rig.stats, kSaturatedInserts, [&](std::size_t i) {
    const std::uint32_t v = low_bit(i);
    ASSERT_EQ(ht.insert("dna", bytes_of(v)), Status::kSuccess);
  });
  ht.end_iteration();
  EXPECT_EQ(rig.stats.snapshot().combines - before, kSaturatedInserts);
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.entry_count(), 1u);
  ASSERT_TRUE(t.lookup("dna").has_value());
  EXPECT_EQ(as_u32(*t.lookup("dna")), kSaturated);
}

// Every insert adds a nonzero value to one hot key, so every combine stores
// and four workers race on the value. A one-word value is combined by a CAS
// without the bucket lock, a two-word one under the lock; neither may lose
// an update, and both count one lock acquire per insert.
constexpr std::size_t kStoringInserts = 20000;

HashTableConfig hot_key_cfg(CombineFn combiner) {
  HashTableConfig cfg;
  cfg.num_buckets = 1u << 10;
  cfg.buckets_per_group = 32;
  cfg.page_size = 4u << 10;
  cfg.combiner = combiner;
  return cfg;
}

TEST(CombinerConcurrencyTest, SepoTableSumsStoringCombinesExactly) {
  Rig rig(32u << 20, /*workers=*/4);
  SepoHashTable ht(rig.ctx, hot_key_cfg(combine_sum_u64));
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("hot", 0), Status::kSuccess);
  const gpusim::StatsSnapshot before = rig.stats.snapshot();
  gpusim::launch(rig.pool, rig.stats, kStoringInserts, [&](std::size_t i) {
    ASSERT_EQ(ht.insert_u64("hot", i + 1), Status::kSuccess);
  });
  ht.end_iteration();
  const gpusim::StatsSnapshot d = rig.stats.snapshot() - before;
  EXPECT_EQ(d.combines, kStoringInserts);
  EXPECT_EQ(d.lock_acquires, kStoringInserts);
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_EQ(t.lookup_u64("hot"), kStoringInserts * (kStoringInserts + 1) / 2);
}

// Sums two uint64 lanes, storing only a lane that changes.
void combine_sum_2u64(std::byte* e, const std::byte* i, std::uint32_t) {
  combine_sum_u64(e, i, 8);
  combine_sum_u64(e + 8, i + 8, 8);
}

TEST(CombinerConcurrencyTest, SepoTableSumsStoringTwoWordCombinesExactly) {
  Rig rig(32u << 20, /*workers=*/4);
  SepoHashTable ht(rig.ctx, hot_key_cfg(combine_sum_2u64));
  ht.begin_iteration();
  const std::uint64_t zero[2] = {0, 0};
  ASSERT_EQ(ht.insert("hot", std::as_bytes(std::span{zero})),
            Status::kSuccess);
  const gpusim::StatsSnapshot before = rig.stats.snapshot();
  gpusim::launch(rig.pool, rig.stats, kStoringInserts, [&](std::size_t i) {
    const std::uint64_t v[2] = {i + 1, 1};
    ASSERT_EQ(ht.insert("hot", std::as_bytes(std::span{v})), Status::kSuccess);
  });
  ht.end_iteration();
  const gpusim::StatsSnapshot d = rig.stats.snapshot() - before;
  EXPECT_EQ(d.combines, kStoringInserts);
  EXPECT_EQ(d.lock_acquires, kStoringInserts);
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.entry_count(), 1u);
  const auto got = t.lookup("hot");
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), sizeof zero);
  std::uint64_t sums[2];
  std::memcpy(sums, got->data(), sizeof sums);
  EXPECT_EQ(sums[0], kStoringInserts * (kStoringInserts + 1) / 2);
  EXPECT_EQ(sums[1], kStoringInserts);
}

TEST(CombinerConcurrencyTest, ChainedHostTableCombinesSaturatedKeyExactly) {
  Rig rig(1u << 16, /*workers=*/4);
  baselines::ChainedHostTable t(rig.stats, {.num_buckets = 256,
                                            .combiner = combine_or_u32});
  ASSERT_EQ(t.insert(0, "dna", bytes_of(kSaturated)), Status::kSuccess);
  const std::uint64_t before = rig.stats.snapshot().combines;
  rig.pool.run_parties(4, [&](std::size_t party) {
    for (std::size_t i = party; i < kSaturatedInserts; i += 4) {
      const std::uint32_t v = low_bit(i);
      t.insert(static_cast<std::uint32_t>(party), "dna", bytes_of(v));
    }
  });
  EXPECT_EQ(rig.stats.snapshot().combines - before, kSaturatedInserts);
  EXPECT_EQ(t.entry_count(), 1u);
  ASSERT_TRUE(t.lookup("dna").has_value());
  EXPECT_EQ(as_u32(*t.lookup("dna")), kSaturated);
}

// Skipping the store is host-only: the pinned table meters a no-op combine's
// read-modify-write across the bus exactly like one that changes the value.
TEST(CombinerConcurrencyTest, PinnedNoOpCombineIsMeteredLikeAnyOther) {
  auto meter = [](std::uint64_t increment) {
    Rig rig(1u << 20);
    baselines::ChainedHostTable t(rig.ctx, {.num_buckets = 256,
                                            .combiner = combine_sum_u64});
    for (int i = 0; i < 100; ++i) t.insert_u64(0, "key", i == 0 ? 1 : increment);
    return std::pair{rig.stats.snapshot(), rig.dev.bus().snapshot()};
  };
  const auto [noop_stats, noop_bus] = meter(0);
  const auto [add_stats, add_bus] = meter(1);
  EXPECT_EQ(noop_stats.combines, 99u);
  EXPECT_EQ(noop_stats, add_stats);
  EXPECT_EQ(noop_bus.remote_bytes, add_bus.remote_bytes);
  EXPECT_EQ(noop_bus.remote_txns, add_bus.remote_txns);
}

}  // namespace
}  // namespace sepo::core
