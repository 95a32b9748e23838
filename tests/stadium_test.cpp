// Tests for the Stadium-hashing-style baseline (§VII related work).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>

#include "apps/harness.hpp"
#include "baselines/chained_host_table.hpp"
#include "baselines/stadium_hash_table.hpp"
#include "common/random.hpp"
#include "test_util.hpp"

namespace sepo::baselines {
namespace {

using test::Rig;
using test::as_u64;

TEST(StadiumTest, StoresAndFindsAllDuplicates) {
  Rig rig(1u << 20);
  StadiumHashTable t(rig.ctx, {.num_buckets = 256});
  t.insert_u64("dup", 1);
  t.insert_u64("dup", 2);
  t.insert_u64("other", 3);
  // §VII: duplicates are separate pairs — no combining.
  EXPECT_EQ(t.table().entry_count(), 3u);
  const auto vals = t.lookup_all("dup");
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(as_u64(vals[0]) + as_u64(vals[1]), 3u);
  EXPECT_TRUE(t.lookup_all("absent").empty());
}

TEST(StadiumTest, InsertIsExactlyOneRemoteTransaction) {
  Rig rig(1u << 20);
  StadiumHashTable t(rig.ctx, {.num_buckets = 256});
  for (int i = 0; i < 100; ++i) t.insert_u64("k" + std::to_string(i), 1);
  // The device-resident fingerprint index absorbs all probing; only the
  // entry store crosses the bus.
  EXPECT_EQ(rig.dev.bus().snapshot().remote_txns, 100u);
}

TEST(StadiumTest, LookupsTouchHostOnlyOnFingerprintMatches) {
  Rig rig(1u << 20);
  StadiumHashTable t(rig.ctx, {.num_buckets = 1});  // one bucket
  for (int i = 0; i < 200; ++i) t.insert_u64("k" + std::to_string(i), 1);
  const auto before = rig.dev.bus().snapshot().remote_txns;
  (void)t.lookup_all("k7");
  const auto after = rig.dev.bus().snapshot().remote_txns;
  // 200 co-bucket entries, but only fingerprint matches (~1 real + ~0-1
  // 16-bit collisions) are confirmed remotely — far fewer than a pinned
  // table's 200-probe chain walk.
  EXPECT_GE(after - before, 2u);  // key read + value read for the hit
  EXPECT_LE(after - before, 12u);
}

TEST(StadiumTest, MatchesBasicReferenceDigest) {
  Rig rig(2u << 20);
  StadiumHashTable stadium(rig.ctx, {.num_buckets = 1u << 10});
  gpusim::RunStats cpu_stats;
  ChainedHostTable reference(cpu_stats,
                             {.org = core::Organization::kBasic});

  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    const std::string k = "key-" + std::to_string(rng.below(3000));
    const std::uint64_t v = rng.next();
    stadium.insert_u64(k, v);
    reference.insert_u64(0, k, v);
  }
  EXPECT_EQ(stadium.table().entry_count(), reference.entry_count());
  EXPECT_EQ(apps::digest_kv(stadium.table()), apps::digest_kv(reference));
  EXPECT_GT(stadium.index_bytes(), 0u);
  // The index is compact: a few bytes per pair.
  EXPECT_LT(stadium.index_bytes(), 20000u * 8u);
}

TEST(StadiumTest, IndexExhaustsDeviceMemoryWithoutSepo) {
  Rig rig(64u << 10);  // tiny device: heads + a few index blocks only
  StadiumHashTable t(rig.ctx, {.num_buckets = 256});
  bool threw = false;
  try {
    for (int i = 0; i < 200000; ++i) t.insert_u64("k" + std::to_string(i), 1);
  } catch (const std::bad_alloc&) {
    threw = true;  // no postponement path exists in this design
  }
  EXPECT_TRUE(threw);
}

// An entry larger than one pinned heap chunk gets a chunk of its own rather
// than overrunning the current one.
TEST(StadiumTest, OversizedEntryRoundTrips) {
  Rig rig(1u << 20);
  StadiumHashTable t(rig.ctx, {.num_buckets = 256});
  std::vector<std::byte> big((1u << 20) + 64);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::byte>(i * 131 + 7);
  t.insert_u64("before", 1);
  t.insert("big", big);
  t.insert_u64("after", 2);
  const auto vals = t.lookup_all("big");
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_TRUE(std::equal(vals[0].begin(), vals[0].end(), big.begin(),
                         big.end()));
  ASSERT_EQ(t.lookup_all("before").size(), 1u);
  EXPECT_EQ(as_u64(t.lookup_all("before")[0]), 1u);
  ASSERT_EQ(t.lookup_all("after").size(), 1u);
  EXPECT_EQ(as_u64(t.lookup_all("after")[0]), 2u);
}

}  // namespace
}  // namespace sepo::baselines
