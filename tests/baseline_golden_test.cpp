// Golden counters for the baseline engines (cpu, pinned, phoenix, mapcg,
// stadium, paging-sim). Each row pins every simulated counter, the PCIe
// totals, the result digest, key count, table footprint and simulated time
// of one (app, engine) run on a fixed generated input at one pool worker,
// where the run is a pure function of its input. A refactor of the table that loses an
// alloc_ops bump, a heap-lock acquire or a metered remote byte keeps every
// digest but fails here.
#include <gtest/gtest.h>

#include <string>

#include "apps/engine.hpp"
#include "test_util.hpp"

namespace sepo::apps {
namespace {

constexpr std::size_t kInputBytes = 48u << 10;
constexpr std::uint64_t kSeed = 5;

struct Golden {
  const char* app;
  const char* engine;
  const char* fingerprint;
  double sim_seconds;
};

// The cpu, pinned and phoenix rows were recorded from the two-table
// implementation the chained host table replaced; the mapcg and stadium rows
// from their own chained tables, before they became placements of it. The
// stadium rows' kernel_launches and sim_seconds were re-recorded when its
// map became a timeline kernel that waits for the input copy.
constexpr Golden kGolden[] = {
    {"pvc", "cpu",
     "records_processed=422 work_units=48765 hash_ops=422 "
     "key_compare_bytes=370 chain_links_walked=9 inserts_new=413 "
     "combines=9 alloc_ops=413 lock_acquires=422 keys=413 "
     "checksum=364913289404329803 table_bytes=31992",
     0x1.6dcd0d0e86558p-15},
    {"pvc", "pinned",
     "records_processed=422 records_scanned=422 work_units=48765 "
     "hash_ops=422 key_compare_bytes=419 chain_links_walked=10 "
     "inserts_new=413 combines=9 alloc_ops=413 lock_acquires=835 "
     "kernel_launches=1 h2d_bytes=49186 h2d_txns=1 remote_bytes=32715 "
     "remote_txns=432 keys=413 checksum=364913289404329803",
     0x1.09471584e9251p-14},
    {"ii", "cpu",
     "records_processed=79 work_units=49190 hash_ops=517 "
     "key_compare_bytes=2955 chain_links_walked=65 inserts_new=453 "
     "value_appends=517 alloc_ops=970 lock_acquires=517 keys=453 "
     "checksum=3389782296274213599 table_bytes=58496",
     0x1.8a3fedba1095ep-15},
    {"ii", "pinned",
     "records_processed=79 records_scanned=79 work_units=49190 "
     "hash_ops=517 key_compare_bytes=3279 chain_links_walked=72 "
     "inserts_new=453 value_appends=517 alloc_ops=970 lock_acquires=1487 "
     "divergent_units=49190 kernel_launches=1 h2d_bytes=49268 h2d_txns=1 "
     "remote_bytes=67713 remote_txns=1042 keys=453 "
     "checksum=3389782296274213599",
     0x1.346d7509a8867p-13},
    {"dna", "cpu",
     "records_processed=757 work_units=48448 hash_ops=37093 "
     "key_compare_bytes=149232 chain_links_walked=9327 inserts_new=32137 "
     "combines=4956 alloc_ops=32137 lock_acquires=37093 keys=32137 "
     "checksum=16680073498876867995 table_bytes=1285480",
     0x1.819ab63b26de7p-12},
    {"dna", "pinned",
     "records_processed=757 records_scanned=757 work_units=48448 "
     "hash_ops=37093 key_compare_bytes=629888 chain_links_walked=39368 "
     "inserts_new=32137 combines=4956 alloc_ops=32137 lock_acquires=69230 "
     "kernel_launches=1 h2d_bytes=49204 h2d_txns=1 remote_bytes=2584904 "
     "remote_txns=76461 keys=32137 checksum=16680073498876867995",
     0x1.1d1b3b938d496p-8},
    {"netflix", "cpu",
     "records_processed=964 work_units=48202 hash_ops=25919 "
     "key_compare_bytes=70149 chain_links_walked=10141 inserts_new=17304 "
     "combines=8615 alloc_ops=17304 lock_acquires=25919 keys=17304 "
     "checksum=3346149768272946175 table_bytes=594760",
     0x1.24bc011720cd8p-12},
    {"netflix", "pinned",
     "records_processed=964 records_scanned=964 work_units=48202 "
     "hash_ops=25919 key_compare_bytes=149611 chain_links_walked=21048 "
     "inserts_new=17304 combines=8615 alloc_ops=17304 lock_acquires=43223 "
     "kernel_launches=1 h2d_bytes=49165 h2d_txns=1 remote_bytes=1226775 "
     "remote_txns=46967 keys=17304 checksum=3346149768272946175",
     0x1.232a006c33adp-9},
    {"wc", "phoenix",
     "records_processed=540 work_units=48709 hash_ops=8454 "
     "key_compare_bytes=33409 chain_links_walked=4483 inserts_new=4176 "
     "combines=4278 alloc_ops=4176 lock_acquires=8454 keys=1492 "
     "checksum=195287702378123474 table_bytes=52712",
     0x1.040358e405e28p-13},
    {"pc", "phoenix",
     "records_processed=3625 work_units=45528 hash_ops=7250 "
     "key_compare_bytes=2168 chain_links_walked=430 inserts_new=7057 "
     "value_appends=7250 alloc_ops=14307 lock_acquires=7250 keys=3457 "
     "checksum=6273938153972494048 table_bytes=197624",
     0x1.ef89c3c13e00fp-14},
    {"geo", "phoenix",
     "records_processed=1177 work_units=47993 hash_ops=2354 "
     "key_compare_bytes=1764 chain_links_walked=64 inserts_new=2303 "
     "value_appends=2354 alloc_ops=4657 lock_acquires=2354 keys=1135 "
     "checksum=4243751406824444527 table_bytes=101632",
     0x1.12a95b640a4c2p-14},
    {"wc", "mapcg",
     "records_processed=540 work_units=48709 hash_ops=5770 "
     "key_compare_bytes=34184 chain_links_walked=8886 inserts_new=1492 "
     "combines=4278 value_appends=5770 alloc_ops=7262 lock_acquires=5770 "
     "kernel_launches=2 h2d_bytes=49249 h2d_txns=1 d2h_bytes=191192 "
     "d2h_txns=1 keys=1492 checksum=195287702378123474",
     0x1.485659eda0f19p-12},
    {"pc", "mapcg",
     "records_processed=3625 work_units=45528 hash_ops=3625 "
     "key_compare_bytes=2680 chain_links_walked=517 inserts_new=3457 "
     "value_appends=3625 alloc_ops=7082 lock_acquires=3625 "
     "kernel_launches=1 h2d_bytes=49153 h2d_txns=1 d2h_bytes=197624 "
     "d2h_txns=1 keys=3457 checksum=6273938153972494048",
     0x1.b9bdcc599019fp-13},
    {"geo", "mapcg",
     "records_processed=1177 work_units=47993 hash_ops=1177 "
     "key_compare_bytes=1990 chain_links_walked=72 inserts_new=1135 "
     "value_appends=1177 alloc_ops=2312 lock_acquires=1177 "
     "kernel_launches=1 h2d_bytes=49170 h2d_txns=1 d2h_bytes=101632 "
     "d2h_txns=1 keys=1135 checksum=4243751406824444527",
     0x1.5e3fa856147e3p-14},
    {"pvc", "stadium",
     "records_processed=422 work_units=48765 hash_ops=422 inserts_new=422 "
     "alloc_ops=422 lock_acquires=844 kernel_launches=1 h2d_bytes=49187 "
     "h2d_txns=1 remote_bytes=32624 remote_txns=422 keys=413 "
     "checksum=364913289404329803",
     0x1.082330114b377p-14},
    {"ii", "stadium",
     "records_processed=79 work_units=49190 hash_ops=517 inserts_new=517 "
     "alloc_ops=517 lock_acquires=1034 kernel_launches=1 h2d_bytes=49269 "
     "h2d_txns=1 remote_bytes=50832 remote_txns=517 keys=453 "
     "checksum=3389782296274213599",
     0x1.6fd0359b50b74p-14},
    {"dna", "stadium",
     "records_processed=757 work_units=48448 hash_ops=37093 "
     "inserts_new=37093 alloc_ops=37093 lock_acquires=74186 "
     "kernel_launches=1 h2d_bytes=49205 h2d_txns=1 remote_bytes=1483720 "
     "remote_txns=37093 keys=32137 checksum=16680073498876867995",
     0x1.39a7892f7d2f4p-9},
    {"netflix", "stadium",
     "records_processed=964 work_units=48202 hash_ops=25919 "
     "inserts_new=25919 alloc_ops=25919 lock_acquires=51838 "
     "kernel_launches=1 h2d_bytes=49166 h2d_txns=1 remote_bytes=873592 "
     "remote_txns=25919 keys=17304 checksum=3346149768272946175",
     0x1.83422ed4598ecp-10},
    // cpu and pinned run the MapReduce apps since they joined Figure 7's
    // registry sweep; these rows were recorded from the adapter that fed
    // the apps' map functions to the same tables before that.
    {"wc", "cpu",
     "records_processed=540 work_units=48709 hash_ops=5770 "
     "key_compare_bytes=32284 chain_links_walked=4296 "
     "inserts_new=1492 combines=4278 alloc_ops=1492 "
     "lock_acquires=5770 keys=1492 checksum=195287702378123474 "
     "table_bytes=52712",
     0x1.b97325e4933a3p-14},
    {"wc", "pinned",
     "records_processed=540 records_scanned=540 work_units=48709 "
     "hash_ops=5770 key_compare_bytes=34184 chain_links_walked=4608 "
     "inserts_new=1492 combines=4278 alloc_ops=1492 "
     "lock_acquires=7262 kernel_launches=1 h2d_bytes=49248 "
     "h2d_txns=1 remote_bytes=229492 remote_txns=10378 keys=1492 "
     "checksum=195287702378123474",
     0x1.1a9382c302378p-11},
    {"pc", "cpu",
     "records_processed=3625 work_units=45528 hash_ops=3625 "
     "key_compare_bytes=1047 chain_links_walked=211 "
     "inserts_new=3457 value_appends=3625 alloc_ops=7082 "
     "lock_acquires=3625 keys=3457 checksum=6273938153972494048 "
     "table_bytes=197624",
     0x1.460dcdc05f229p-14},
    {"pc", "pinned",
     "records_processed=3625 records_scanned=3625 work_units=45528 "
     "hash_ops=3625 key_compare_bytes=2680 chain_links_walked=517 "
     "inserts_new=3457 value_appends=3625 alloc_ops=7082 "
     "lock_acquires=10707 kernel_launches=1 h2d_bytes=49152 "
     "h2d_txns=1 remote_bytes=241804 remote_txns=7599 keys=3457 "
     "checksum=6273938153972494048",
     0x1.bda66d6a69833p-12},
    {"geo", "cpu",
     "records_processed=1177 work_units=47993 hash_ops=1177 "
     "key_compare_bytes=1304 chain_links_walked=47 inserts_new=1135 "
     "value_appends=1177 alloc_ops=2312 lock_acquires=1177 "
     "keys=1135 checksum=4243751406824444527 table_bytes=101632",
     0x1.bb36635550d64p-15},
    {"geo", "pinned",
     "records_processed=1177 records_scanned=1177 work_units=47993 "
     "hash_ops=1177 key_compare_bytes=1990 chain_links_walked=72 "
     "inserts_new=1135 value_appends=1177 alloc_ops=2312 "
     "lock_acquires=3489 kernel_launches=1 h2d_bytes=49169 "
     "h2d_txns=1 remote_bytes=114820 remote_txns=2384 keys=1135 "
     "checksum=4243751406824444527",
     0x1.94c4e414b1876p-13},
    // The table fits the default device, so the replay evicts no page and
    // its transfer bound is 0; the row pins the traced table's keys, digest
    // and footprint.
    {"pvc", "paging-sim",
     "keys=413 checksum=364913289404329803 table_bytes=297440", 0},
};

TEST(BaselineGoldenCounterTest, ChainedHostTableEnginesMatchRecordedCounters) {
  EngineConfig cfg;
  cfg.cpu.pool_workers = 1;
  cfg.gpu.pool_workers = 1;
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
    EXPECT_EQ(test::golden_fingerprint(r), g.fingerprint);
    EXPECT_DOUBLE_EQ(r.sim_seconds, g.sim_seconds);
  }
}

// The table above covers every (app, engine) pair of every registered row
// but the two SEPO rows, which sepo_golden_test covers.
TEST(BaselineGoldenCounterTest, CoversEverySupportedPair) {
  std::size_t pairs = 0;
  for (const AppInfo* app : all_apps())
    for (const Engine* e : all_engines())
      if (e->placement != Placement::kDeviceSepo && e->supports(*app)) ++pairs;
  EXPECT_EQ(pairs, std::size(kGolden));
}

}  // namespace
}  // namespace sepo::apps
