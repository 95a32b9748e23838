// Shape-regression tests: assert the *qualitative* paper results the benches
// demonstrate, on small inputs, so a refactor that silently destroys a
// paper-shape property fails CI rather than only being visible by reading
// bench output. (EXPERIMENTS.md documents the quantitative versions.)
#include <gtest/gtest.h>

#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"

namespace sepo::apps {
namespace {

constexpr std::size_t kInput = 1u << 20;  // 1 MiB keeps this suite fast

// One run of `app` on the registry engine `engine`.
RunResult run(const char* engine, const AppInfo& app, std::string_view input,
              const GpuConfig& gpu = {}) {
  return find_engine(engine)->run(app, input, {.gpu = gpu, .cpu = {}});
}

TEST(ShapeRegression, PvcGpuBeatsCpu) {
  const AppInfo& app = *find_app("pvc");
  const std::string input = app.generate(kInput, 71);
  const RunResult gpu = run("sepo-gpu", app, input);
  const RunResult cpu = run("cpu", app, input);
  EXPECT_GT(cpu.sim_seconds / gpu.sim_seconds, 2.0);  // paper ~3.5
}

TEST(ShapeRegression, InvertedIndexGpuDoesNotBeatCpu) {
  // §VI-B: II's divergent parser keeps the GPU at or below the CPU.
  const AppInfo& app = *find_app("ii");
  const std::string input = app.generate(2 * kInput, 72);
  const RunResult gpu = run("sepo-gpu", app, input);
  const RunResult cpu = run("cpu", app, input);
  EXPECT_LT(cpu.sim_seconds / gpu.sim_seconds, 1.5);
}

TEST(ShapeRegression, WordCountIsTheWeakestMapReduceApp) {
  // §VI-B: Word Count's hot-word lock contention caps its speedup below the
  // other MapReduce apps'.
  const AppInfo& wc = *find_app("wc");
  const AppInfo& pc = *find_app("pc");
  const std::string wc_in = wc.generate(2 * kInput, 73);
  const std::string pc_in = pc.generate(2 * kInput, 73);
  const double wc_speedup = run("phoenix", wc, wc_in).sim_seconds /
                            run("sepo-mr", wc, wc_in).sim_seconds;
  const double pc_speedup = run("phoenix", pc, pc_in).sim_seconds /
                            run("sepo-mr", pc, pc_in).sim_seconds;
  EXPECT_LT(wc_speedup, pc_speedup);
}

TEST(ShapeRegression, PinnedIsSlowerThanSepo) {
  // Figure 7: the pinned-in-CPU-memory table loses to SEPO badly.
  const AppInfo& app = *find_app("pvc");
  const std::string input = app.generate(kInput, 74);
  const RunResult gpu = run("sepo-gpu", app, input);
  const RunResult pin = run("pinned", app, input);
  EXPECT_GT(pin.sim_seconds, 2.0 * gpu.sim_seconds);
  EXPECT_EQ(pin.checksum, gpu.checksum);
}

TEST(ShapeRegression, WordCountGpuTimeIsMostlyHotLockSerialization) {
  // §VI-B explains Word Count's GPU result by lock contention on the few hot
  // words: the serialization term outweighs the whole timeline makespan.
  const AppInfo& wc = *find_app("wc");
  const RunResult r = run("sepo-mr", wc, wc.generate(2 * kInput, 73));
  ASSERT_FALSE(r.error);
  EXPECT_GT(r.serialization_seconds, r.timeline.total);
}

TEST(ShapeRegression, PinnedLosesOnRemoteTrafficAlone) {
  // Figure 7's explanation: many small PCIe transactions. Pinned's remote
  // traffic alone takes longer than SEPO's whole run on the same input.
  const AppInfo& app = *find_app("pvc");
  const std::string input = app.generate(kInput, 74);
  const RunResult gpu = run("sepo-gpu", app, input);
  const RunResult pin = run("pinned", app, input);
  EXPECT_GT(pin.timeline.remote_busy, gpu.sim_seconds);
}

TEST(ShapeRegression, SepoDegradesGracefullyWithShrinkingHeap) {
  // Table III's last column: halving the heap must not double the time.
  const AppInfo& app = *find_app("pvc");
  const std::string input = app.generate(4 * kInput, 75);
  GpuConfig big, small;
  big.device_bytes = 16u << 20;
  small.device_bytes = 16u << 20;
  big.heap_bytes = 8u << 20;
  small.heap_bytes = 2u << 20;
  const RunResult rb = run("sepo-gpu", app, input, big);
  const RunResult rs = run("sepo-gpu", app, input, small);
  EXPECT_EQ(rb.iterations, 1u);
  EXPECT_GT(rs.iterations, rb.iterations);
  EXPECT_LT(rs.sim_seconds, 2.0 * rb.sim_seconds);
  EXPECT_EQ(rs.checksum, rb.checksum);
}

TEST(ShapeRegression, MapCgFailsWhereSepoSucceeds) {
  // Table II's bottom half: no SEPO -> hard failure past device memory,
  // surfaced as a typed RunError on the result instead of an escaping throw.
  const AppInfo& wc = *find_app("wc");
  const std::string input = wc.generate(3u << 20, 76);
  const RunResult theirs = run("mapcg", wc, input);  // 4 MiB device
  ASSERT_TRUE(theirs.error);
  EXPECT_EQ(theirs.error.kind, RunError::Kind::kDeviceOutOfMemory);
  EXPECT_FALSE(theirs.error.message.empty());
  const RunResult ours = run("sepo-mr", wc, input);
  EXPECT_FALSE(ours.error);
  EXPECT_GE(ours.iterations, 1u);
}

TEST(ShapeRegression, CombiningUsesLessMemoryThanBasic) {
  // Figure 4: combining's table is a fraction of basic's on duplicate-heavy
  // data.
  const AppInfo& pvc = *find_app("pvc");  // combining
  // Duplicate-heavy log: the organizations' footprints diverge on repeats.
  const std::string input =
      gen_weblog({.target_bytes = kInput, .seed = 77}, /*distinct_urls=*/2000,
                 /*zipf_s=*/1.0);
  const RunResult combining = run("sepo-gpu", pvc, input);

  class BasicPvc final : public StandaloneApp {
   public:
    const char* name() const noexcept override { return "basic-pvc"; }
    const char* table1_key() const noexcept override { return "pvc"; }
    core::Organization organization() const noexcept override {
      return core::Organization::kBasic;
    }
    std::string generate(std::size_t bytes, std::uint64_t seed) const override {
      return gen_weblog({.target_bytes = bytes, .seed = seed});
    }
    void map_record(std::string_view body,
                    mapreduce::Emitter& em) const override {
      PageViewCountApp{}.map_record(body, em);
    }
  } basic;
  const RunResult raw =
      run("sepo-gpu", AppInfo{"basic-pvc", basic.name(), &basic}, input);
  EXPECT_LT(combining.table_bytes * 2, raw.table_bytes);
}

}  // namespace
}  // namespace sepo::apps
