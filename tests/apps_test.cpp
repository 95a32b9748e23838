// Application-level tests: every implementation of every app must agree on
// the result digest (GPU-SEPO vs CPU vs pinned vs MapCG), generators must be
// deterministic and sized, and parsers must handle malformed records.
#include <gtest/gtest.h>

#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"

namespace sepo::apps {
namespace {

// Small-but-nontrivial input size used across these tests.
constexpr std::size_t kBytes = 384u << 10;

// A device this small forces at least one heap overflow for the bulkier
// apps, exercising SEPO in the comparison.
GpuConfig tiny_gpu() {
  GpuConfig cfg;
  cfg.device_bytes = 1u << 20;
  cfg.page_size = 4u << 10;
  cfg.num_buckets = 1u << 12;
  cfg.buckets_per_group = 256;
  return cfg;
}

// ---- standalone apps: parameterized cross-implementation equivalence ----

enum class Which { kPvc, kIi, kDna, kNetflix };

const AppInfo& find(Which w) {
  switch (w) {
    case Which::kPvc: return *find_app("pvc");
    case Which::kIi: return *find_app("ii");
    case Which::kDna: return *find_app("dna");
    case Which::kNetflix: return *find_app("netflix");
  }
  return *find_app("pvc");
}

// One run of `app` on the registry engine `engine`.
RunResult run(const char* engine, const AppInfo& app, std::string_view input,
              const GpuConfig& gpu = {}) {
  return find_engine(engine)->run(app, input, {.gpu = gpu, .cpu = {}});
}

class StandaloneAppSuite : public ::testing::TestWithParam<Which> {};

TEST_P(StandaloneAppSuite, GpuCpuAndPinnedAgree) {
  const AppInfo& app = find(GetParam());
  const std::string input = app.generate(kBytes, 31337);
  const RunResult gpu = run("sepo-gpu", app, input, tiny_gpu());
  const RunResult cpu = run("cpu", app, input);
  const RunResult pin = run("pinned", app, input, tiny_gpu());
  EXPECT_EQ(gpu.checksum, cpu.checksum) << app.title;
  EXPECT_EQ(pin.checksum, cpu.checksum) << app.title;
  EXPECT_EQ(gpu.keys, cpu.keys) << app.title;
  EXPECT_GT(gpu.keys, 0u);
}

TEST_P(StandaloneAppSuite, GeneratorIsDeterministicAndSized) {
  const AppInfo& app = find(GetParam());
  const std::string a = app.generate(kBytes, 1);
  const std::string b = app.generate(kBytes, 1);
  const std::string c = app.generate(kBytes, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GE(a.size(), kBytes);
  EXPECT_LT(a.size(), kBytes + (8u << 10));
}

TEST_P(StandaloneAppSuite, SepoIterationsForcedByTinyHeap) {
  const AppInfo& app = find(GetParam());
  const std::string input = app.generate(kBytes, 5);
  GpuConfig cfg = tiny_gpu();
  cfg.device_bytes = 512u << 10;  // even tighter
  cfg.num_buckets = 1u << 11;
  const RunResult gpu = run("sepo-gpu", app, input, cfg);
  const RunResult cpu = run("cpu", app, input);
  EXPECT_EQ(gpu.checksum, cpu.checksum) << app.title;
  if (gpu.table_bytes > gpu.heap_bytes) {
    EXPECT_GT(gpu.iterations, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, StandaloneAppSuite,
                         ::testing::Values(Which::kPvc, Which::kIi,
                                           Which::kDna, Which::kNetflix),
                         [](const auto& info) {
                           switch (info.param) {
                             case Which::kPvc: return "PageViewCount";
                             case Which::kIi: return "InvertedIndex";
                             case Which::kDna: return "DnaAssembly";
                             case Which::kNetflix: return "Netflix";
                           }
                           return "?";
                         });

// ---- MapReduce apps ----

class MrAppSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(MrAppSuite, SepoAndPhoenixAgree) {
  const AppInfo& app = *find_app(GetParam());
  const std::string input = app.generate(kBytes, 41);
  const RunResult ours = run("sepo-mr", app, input, tiny_gpu());
  const RunResult phoenix = run("phoenix", app, input);
  EXPECT_EQ(ours.checksum, phoenix.checksum) << app.title;
  EXPECT_EQ(ours.keys, phoenix.keys) << app.title;
}

TEST_P(MrAppSuite, SepoAndMapCgAgreeOnSmallInput) {
  const AppInfo& app = *find_app(GetParam());
  const std::string input = app.generate(96u << 10, 42);
  // Default 4 MiB device: small input fits MapCG.
  const RunResult ours = run("sepo-mr", app, input);
  const RunResult mapcg = run("mapcg", app, input);
  EXPECT_EQ(ours.checksum, mapcg.checksum) << app.title;
}

// sepo-mr sizes its heap from GpuConfig::heap_bytes like sepo-gpu does
// (Table III's memory sweep pins it), instead of claiming the whole device.
TEST_P(MrAppSuite, SepoHonorsHeapBytes) {
  const AppInfo& app = *find_app(GetParam());
  const std::string input = app.generate(96u << 10, 43);
  GpuConfig cfg;
  cfg.heap_bytes = 1u << 20;  // a whole number of pages, well under free
  const RunResult r = run("sepo-mr", app, input, cfg);
  ASSERT_FALSE(r.error) << app.title << ": " << r.error.message;
  EXPECT_EQ(r.heap_bytes, cfg.heap_bytes) << app.title;
}

INSTANTIATE_TEST_SUITE_P(AllMrApps, MrAppSuite,
                         ::testing::Values("wc", "geo", "pc"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- parser robustness ----

class NullEmitter final : public mapreduce::Emitter {
 public:
  core::Status emit(std::string_view, std::span<const std::byte>) override {
    ++emitted;
    return core::Status::kSuccess;
  }
  int emitted = 0;
};

TEST(ParserRobustness, MalformedRecordsEmitNothingAndDontCrash) {
  NullEmitter em;
  PageViewCountApp pvc;
  pvc.map_record("", em);
  pvc.map_record("not a log line", em);
  pvc.map_record("\"GET", em);
  InvertedIndexApp ii;
  ii.map_record("no-tab-here", em);
  ii.map_record("path\t<a href=\"unterminated", em);
  DnaAssemblyApp dna;
  dna.map_record("ACGT", em);  // shorter than k
  NetflixApp netflix;
  netflix.map_record("m1:", em);        // no raters
  netflix.map_record("m1: u5,3", em);   // one rater -> no pairs
  netflix.map_record("garbage", em);
  EXPECT_EQ(em.emitted, 0);
}

TEST(ParserRobustness, NetflixPairKeysAreCanonical) {
  // The pair key must not depend on the order users appear in the record.
  class Capture final : public mapreduce::Emitter {
   public:
    core::Status emit(std::string_view k, std::span<const std::byte>) override {
      keys.push_back(std::string(k));
      return core::Status::kSuccess;
    }
    std::vector<std::string> keys;
  };
  NetflixApp app;
  Capture a, b;
  app.map_record("m1: u5,3 u9,4", a);
  app.map_record("m2: u9,4 u5,3", b);
  ASSERT_EQ(a.keys.size(), 1u);
  ASSERT_EQ(b.keys.size(), 1u);
  EXPECT_EQ(a.keys[0], b.keys[0]);
}

TEST(ParserRobustness, DnaEmitsOneKmerPerPosition) {
  NullEmitter em;
  DnaAssemblyApp dna;
  const std::string read(40, 'A');
  dna.map_record(read, em);
  EXPECT_EQ(em.emitted, static_cast<int>(40 - DnaAssemblyApp::kK + 1));
}

// ---- Table I sizes ----

TEST(DatagenTest, Table1SizesMatchThePaperScaled) {
  EXPECT_EQ(table1_bytes("pvc", 1), static_cast<std::size_t>(0.6 * 1024 * 1024));
  EXPECT_EQ(table1_bytes("dna", 4), static_cast<std::size_t>(8.0 * 1024 * 1024));
  EXPECT_EQ(table1_bytes("wc", 2), static_cast<std::size_t>(2.0 * 1024 * 1024));
  EXPECT_THROW(table1_bytes("nope", 1), std::invalid_argument);
  EXPECT_THROW(table1_bytes("pvc", 5), std::invalid_argument);
}

// ---- one simulated clock ----

// Every simulated-device engine times its whole run on the timeline: each
// resource's busy total is exactly the run's metered counters priced, so no
// counted event escapes the clock, and sim_seconds is the makespan plus the
// serialization term.
TEST(OneClock, EveryMeteredEventIsOnTheTimeline) {
  EngineConfig cfg;
  cfg.gpu.pool_workers = 1;
  const gpusim::PcieParams pcie;
  for (const Engine* engine : all_engines()) {
    if (!engine->simulated_device()) continue;
    for (const AppInfo* app : all_apps()) {
      if (!engine->supports(*app)) continue;
      SCOPED_TRACE(std::string(app->key) + "/" + engine->name());
      const RunResult r = engine->run(*app, app->generate(64u << 10, 3), cfg);
      ASSERT_FALSE(r.error) << r.error.message;
      ASSERT_GT(r.timeline.commands, 0u);
      // Per-command sums round differently from one product, so compare
      // within 1e-9 relative.
      const auto near = [](double busy, double priced) {
        EXPECT_NEAR(busy, priced, 1e-9 * priced);
      };
      near(r.timeline.compute_busy,
           gpusim::compute_time(gpusim::kGpuDesc, r.stats));
      near(r.timeline.h2d_busy,
           pcie.bulk_time(r.pcie.h2d_bytes, r.pcie.h2d_txns));
      near(r.timeline.d2h_busy,
           pcie.bulk_time(r.pcie.d2h_bytes, r.pcie.d2h_txns));
      near(r.timeline.remote_busy,
           pcie.remote_time(r.pcie.remote_bytes, r.pcie.remote_txns));
      EXPECT_EQ(r.sim_seconds, r.timeline.total + r.serialization_seconds);
    }
  }
}

// A stadium run whose device index overflows mid-map still times the records
// it mapped before the throw.
TEST(OneClock, FailedStadiumRunTimesItsPartialMap) {
  EngineConfig cfg;
  cfg.gpu.pool_workers = 1;
  const AppInfo& dna = *find_app("dna");
  const RunResult r = find_engine("stadium")->run(
      dna, dna.generate(table1_bytes("dna", 1), 3), cfg);
  ASSERT_EQ(r.error.kind, RunError::Kind::kDeviceOutOfMemory);
  ASSERT_GT(r.stats.records_processed, 0u);
  const double priced = gpusim::compute_time(gpusim::kGpuDesc, r.stats);
  EXPECT_NEAR(r.timeline.compute_busy, priced, 1e-9 * priced);
}

TEST(DatagenTest, GeneratorsProduceParsableRecords) {
  // Every line of every generator must be accepted by its app's parser.
  PageViewCountApp pvc;
  const std::string log = pvc.generate(64u << 10, 9);
  const RecordIndex idx = index_lines(log);
  NullEmitter em;
  for (std::size_t i = 0; i < idx.size(); ++i)
    pvc.map_record(idx.record(log.data(), i), em);
  EXPECT_EQ(em.emitted, static_cast<int>(idx.size()));
}

}  // namespace
}  // namespace sepo::apps
