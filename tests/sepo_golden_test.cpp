// Golden counters for the two SEPO engines (sepo-gpu, sepo-mr). Each row pins
// every simulated counter, the PCIe totals, the result digest, key count,
// table footprint, heap size, iteration count, final bucket-occupancy
// histogram and simulated time of one (app, engine) run on a fixed generated
// input at one pool worker, where the run is a pure function of its input.
// The device is small enough that dna, pc and four other rows spill over
// several SEPO iterations, so the flush path runs and HostTable's duplicate
// merge folds real duplicates (dna and netflix under combining, ii under the
// multi-valued organization). A host-side change to the allocator, the flush or the
// finalize walk that loses a counter bump or reorders a chain fails here
// while every digest still matches.
#include <gtest/gtest.h>

#include <string>

#include "apps/engine.hpp"
#include "test_util.hpp"

namespace sepo::apps {
namespace {

constexpr std::size_t kInputBytes = 48u << 10;
constexpr std::uint64_t kSeed = 5;
constexpr std::size_t kDeviceBytes = 704u << 10;

// The shared golden fingerprint plus the SEPO-only result fields.
std::string fingerprint(const RunResult& r) {
  std::string s = test::golden_fingerprint(r);
  s += " driver_iterations=" + std::to_string(r.iterations);
  s += " heap_bytes=" + std::to_string(r.heap_bytes);
  s += " hist=";
  for (std::size_t i = 0; i < r.bucket_histogram.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(r.bucket_histogram[i]);
  }
  return s;
}

struct Golden {
  const char* app;
  const char* engine;
  const char* fingerprint;
  double sim_seconds;
};

constexpr Golden kGolden[] = {
    {"pvc", "sepo-gpu",
     "records_processed=422 records_scanned=422 work_units=48765 "
     "hash_ops=422 key_compare_bytes=419 chain_links_walked=10 "
     "inserts_new=413 combines=9 alloc_ops=413 page_acquires=32 "
     "lock_acquires=835 kernel_launches=1 iterations=1 h2d_bytes=49186 "
     "h2d_txns=1 d2h_bytes=166368 d2h_txns=33 keys=413 "
     "checksum=364913289404329803 table_bytes=35296 driver_iterations=1 "
     "heap_bytes=286720 hist=15972,411,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.325ca7565126p-14},
    {"ii", "sepo-gpu",
     "records_processed=79 records_postponed=229 records_scanned=632 "
     "work_units=218549 hash_ops=746 key_compare_bytes=2392 "
     "chain_links_walked=68 inserts_new=483 value_appends=517 "
     "alloc_ops=1229 alloc_fails=229 page_acquires=258 "
     "lock_acquires=1991 divergent_units=218549 kernel_launches=16 "
     "iterations=8 h2d_bytes=394144 h2d_txns=8 d2h_bytes=203664 "
     "d2h_txns=259 keys=453 checksum=3389782296274213599 "
     "table_bytes=72592 driver_iterations=8 heap_bytes=286720 "
     "hist=15938,439,7,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.4a2b153524021p-11},
    {"dna", "sepo-gpu",
     "records_processed=757 records_postponed=2115 records_scanned=5299 "
     "work_units=183808 hash_ops=39208 key_compare_bytes=148528 "
     "chain_links_walked=9283 inserts_new=34403 combines=2690 "
     "alloc_ops=36518 alloc_fails=2115 page_acquires=242 "
     "lock_acquires=75726 kernel_launches=7 iterations=7 "
     "h2d_bytes=344428 h2d_txns=7 d2h_bytes=1782416 d2h_txns=243 "
     "keys=32137 checksum=16680073498876867995 table_bytes=1651344 "
     "driver_iterations=7 heap_bytes=286720 "
     "hist=2288,4464,4589,2812,1409,584,179,48,7,3,1,0,0,0,0,0,0",
     0x1.2cc59c84b35b9p-11},
    {"netflix", "sepo-gpu",
     "records_processed=964 records_postponed=1121 records_scanned=3856 "
     "work_units=108930 hash_ops=27040 key_compare_bytes=63634 "
     "chain_links_walked=9166 inserts_new=21408 combines=4511 "
     "alloc_ops=22529 alloc_fails=1121 page_acquires=137 "
     "lock_acquires=49569 kernel_launches=4 iterations=4 "
     "h2d_bytes=196660 h2d_txns=4 d2h_bytes=1030312 d2h_txns=138 "
     "keys=17304 checksum=3346149768272946175 table_bytes=899240 "
     "driver_iterations=4 heap_bytes=286720 "
     "hist=5693,6008,3228,1071,309,60,14,1,0,0,0,0,0,0,0,0,0",
     0x1.5baeacc5bad4cp-12},
    {"wc", "sepo-mr",
     "records_processed=540 records_scanned=540 work_units=48709 "
     "hash_ops=5770 key_compare_bytes=34184 chain_links_walked=4608 "
     "inserts_new=1492 combines=4278 alloc_ops=1492 page_acquires=32 "
     "lock_acquires=7262 kernel_launches=1 iterations=1 h2d_bytes=49248 "
     "h2d_txns=1 d2h_bytes=195720 d2h_txns=33 keys=1492 "
     "checksum=195287702378123474 table_bytes=64648 driver_iterations=1 "
     "heap_bytes=286720 hist=14954,1370,58,2,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.5ad16b53465f4p-13},
    {"pc", "sepo-mr",
     "records_processed=3625 records_postponed=1665 records_scanned=7250 "
     "work_units=66408 hash_ops=5290 key_compare_bytes=3219 "
     "chain_links_walked=700 inserts_new=3457 value_appends=3625 "
     "alloc_ops=8747 alloc_fails=1665 page_acquires=64 "
     "lock_acquires=14124 kernel_launches=4 iterations=2 h2d_bytes=98304 "
     "h2d_txns=2 d2h_bytes=413008 d2h_txns=65 keys=3457 "
     "checksum=6273938153972494048 table_bytes=281936 "
     "driver_iterations=2 heap_bytes=286720 "
     "hist=13253,2818,300,13,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.4488d42ff8f77p-13},
    {"geo", "sepo-mr",
     "records_processed=1177 records_postponed=512 records_scanned=2354 "
     "work_units=68783 hash_ops=1689 key_compare_bytes=2851 "
     "chain_links_walked=132 inserts_new=1135 value_appends=1177 "
     "alloc_ops=2824 alloc_fails=512 page_acquires=64 lock_acquires=4542 "
     "kernel_launches=4 iterations=2 h2d_bytes=98338 h2d_txns=2 "
     "d2h_bytes=260280 d2h_txns=65 keys=1135 "
     "checksum=4243751406824444527 table_bytes=129208 "
     "driver_iterations=2 heap_bytes=286720 "
     "hist=15277,1080,26,1,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.298d3b22a7052p-13},
    // sepo-gpu runs the MapReduce apps through the same run path as
    // sepo-mr, so its rows repeat sepo-mr's fingerprints.
    {"wc", "sepo-gpu",
     "records_processed=540 records_scanned=540 work_units=48709 "
     "hash_ops=5770 key_compare_bytes=34184 chain_links_walked=4608 "
     "inserts_new=1492 combines=4278 alloc_ops=1492 page_acquires=32 "
     "lock_acquires=7262 kernel_launches=1 iterations=1 h2d_bytes=49248 "
     "h2d_txns=1 d2h_bytes=195720 d2h_txns=33 keys=1492 "
     "checksum=195287702378123474 table_bytes=64648 driver_iterations=1 "
     "heap_bytes=286720 hist=14954,1370,58,2,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.5ad16b53465f4p-13},
    {"pc", "sepo-gpu",
     "records_processed=3625 records_postponed=1665 records_scanned=7250 "
     "work_units=66408 hash_ops=5290 key_compare_bytes=3219 "
     "chain_links_walked=700 inserts_new=3457 value_appends=3625 "
     "alloc_ops=8747 alloc_fails=1665 page_acquires=64 "
     "lock_acquires=14124 kernel_launches=4 iterations=2 h2d_bytes=98304 "
     "h2d_txns=2 d2h_bytes=413008 d2h_txns=65 keys=3457 "
     "checksum=6273938153972494048 table_bytes=281936 "
     "driver_iterations=2 heap_bytes=286720 "
     "hist=13253,2818,300,13,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.4488d42ff8f77p-13},
    {"geo", "sepo-gpu",
     "records_processed=1177 records_postponed=512 records_scanned=2354 "
     "work_units=68783 hash_ops=1689 key_compare_bytes=2851 "
     "chain_links_walked=132 inserts_new=1135 value_appends=1177 "
     "alloc_ops=2824 alloc_fails=512 page_acquires=64 lock_acquires=4542 "
     "kernel_launches=4 iterations=2 h2d_bytes=98338 h2d_txns=2 "
     "d2h_bytes=260280 d2h_txns=65 keys=1135 "
     "checksum=4243751406824444527 table_bytes=129208 "
     "driver_iterations=2 heap_bytes=286720 "
     "hist=15277,1080,26,1,0,0,0,0,0,0,0,0,0,0,0,0,0",
     0x1.298d3b22a7052p-13},
};

TEST(SepoGoldenCounterTest, SepoEnginesMatchRecordedCounters) {
  EngineConfig cfg;
  cfg.gpu.pool_workers = 1;
  cfg.gpu.device_bytes = kDeviceBytes;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.app) + "/" + g.engine);
    const AppInfo* app = find_app(g.app);
    const Engine* engine = find_engine(g.engine);
    ASSERT_NE(app, nullptr);
    ASSERT_NE(engine, nullptr);
    ASSERT_TRUE(engine->supports(*app));
    const RunResult r =
        engine->run(*app, app->generate(kInputBytes, kSeed), cfg);
    ASSERT_FALSE(r.error) << r.error.message;
    EXPECT_EQ(fingerprint(r), g.fingerprint);
    EXPECT_DOUBLE_EQ(r.sim_seconds, g.sim_seconds);
  }
}

// The table above covers every (app, engine) pair the two engines support.
TEST(SepoGoldenCounterTest, CoversEverySupportedPair) {
  std::size_t pairs = 0;
  for (const AppInfo* app : all_apps())
    for (const char* name : {"sepo-gpu", "sepo-mr"})
      if (find_engine(name)->supports(*app)) ++pairs;
  EXPECT_EQ(pairs, std::size(kGolden));
}

}  // namespace
}  // namespace sepo::apps
