// Telemetry-layer tests: the JSON writer/parser round-trips exactly, the
// metrics schema round-trips a real WordCount run, trace spans are monotone
// and well-nested on the simulated clock, recording never perturbs simulated
// results, and the X-macro-generated counter plumbing stays consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "gpusim/counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sepo::obs {
namespace {

using apps::GpuConfig;
using apps::RunResult;

GpuConfig small_gpu() {
  GpuConfig cfg;
  cfg.device_bytes = 1u << 20;
  cfg.page_size = 4u << 10;
  cfg.num_buckets = 1u << 12;
  cfg.buckets_per_group = 256;
  return cfg;
}

// One Word Count run on the sepo-mr engine.
RunResult run_wc(std::string_view input, const GpuConfig& gpu) {
  return apps::find_engine("sepo-mr")->run(*apps::find_app("wc"), input,
                                            {.gpu = gpu, .cpu = {}});
}

// ---- JSON value tree ----

TEST(JsonTest, RoundTripsTypesExactly) {
  Json j = Json::object();
  j.set("u", std::uint64_t{18446744073709551615ull});  // > int64 max
  j.set("i", std::int64_t{-42});
  j.set("d", 0.125);
  j.set("s", "line\n\"quoted\"\t\\");
  j.set("b", true);
  j.set("n", nullptr);
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json::object().set("k", 3));
  j.set("a", std::move(arr));

  for (const int indent : {0, 2}) {
    std::string err;
    const auto back = Json::parse(j.dump(indent), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ((*back)["u"].as_u64(), 18446744073709551615ull);
    EXPECT_EQ((*back)["i"].as_i64(), -42);
    EXPECT_EQ((*back)["d"].as_double(), 0.125);
    EXPECT_EQ((*back)["s"].as_string(), "line\n\"quoted\"\t\\");
    EXPECT_TRUE((*back)["b"].as_bool());
    EXPECT_TRUE((*back)["n"].is_null());
    EXPECT_EQ((*back)["a"].size(), 3u);
    EXPECT_EQ((*back)["a"].at(1).as_string(), "two");
    EXPECT_EQ((*back)["a"].at(2)["k"].as_i64(), 3);
  }
}

TEST(JsonTest, PreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zebra", 1).set("alpha", 2).set("mid", 3);
  const auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->items().size(), 3u);
  EXPECT_EQ(parsed->items()[0].first, "zebra");
  EXPECT_EQ(parsed->items()[1].first, "alpha");
  EXPECT_EQ(parsed->items()[2].first, "mid");
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(Json::parse("{", &err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1,}", &err).has_value());  // trailing comma
  EXPECT_FALSE(Json::parse("[1 2]", &err).has_value());
  EXPECT_FALSE(Json::parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing", &err).has_value());
  EXPECT_FALSE(err.empty());
}

// ---- nearly_equal: the metrics-diff float comparison discipline ----

TEST(NearlyEqualTest, ExactAndRelativeMatches) {
  EXPECT_TRUE(nearly_equal(0.0, 0.0));
  EXPECT_TRUE(nearly_equal(1.5, 1.5));
  EXPECT_TRUE(nearly_equal(-3.25, -3.25));
  // A few ULP of drift at any magnitude stays within the default 1e-9.
  EXPECT_TRUE(nearly_equal(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(nearly_equal(1e12, 1e12 * (1.0 + 1e-12)));
  EXPECT_TRUE(nearly_equal(1e-12, 1e-12 * (1.0 + 1e-12)));
}

TEST(NearlyEqualTest, RealDifferencesAreDetected) {
  EXPECT_FALSE(nearly_equal(1.0, 1.0001));
  EXPECT_FALSE(nearly_equal(1e12, 1.0001e12));  // relative, not absolute
  EXPECT_FALSE(nearly_equal(0.0, 1e-300));      // zero only equals zero
  EXPECT_FALSE(nearly_equal(1.0, -1.0));
}

TEST(NearlyEqualTest, CustomEpsilonAndNonFinite) {
  EXPECT_TRUE(nearly_equal(100.0, 101.0, 0.02));
  EXPECT_FALSE(nearly_equal(100.0, 103.0, 0.02));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(nearly_equal(inf, inf));  // a == b short-circuit
  EXPECT_FALSE(nearly_equal(inf, -inf));
  EXPECT_FALSE(nearly_equal(inf, 1.0));
  EXPECT_FALSE(nearly_equal(nan, nan));
  EXPECT_FALSE(nearly_equal(nan, 0.0));
}

// ---- metrics schema over a real run ----

class WordCountMetrics : public ::testing::Test {
 protected:
  static const RunResult& run() {
    static const RunResult r = [] {
      const apps::AppInfo& app = *apps::find_app("wc");
      const std::string input = app.generate(256u << 10, 7);
      return run_wc(input, small_gpu());
    }();
    return r;
  }
};

TEST_F(WordCountMetrics, MetricsFileParsesAndCountersRoundTrip) {
  MetricsReport report("obs_test");
  Json extra = Json::object();
  extra.set("dataset", 1);
  report.add_run("wc", run(), std::move(extra));

  std::string err;
  const auto parsed = Json::parse(report.to_json().dump(2), &err);
  ASSERT_TRUE(parsed.has_value()) << err;

  const Json& m = *parsed;
  EXPECT_EQ(m["schema_version"].as_i64(), kMetricsSchemaVersion);
  EXPECT_EQ(m["tool"].as_string(), "obs_test");
  ASSERT_EQ(m["runs"].size(), 1u);
  const Json& r = m["runs"].at(0);
  EXPECT_EQ(r["app"].as_string(), "wc");
  EXPECT_EQ(r["impl"].as_string(), "sepo-mr");
  EXPECT_EQ(r["dataset"].as_i64(), 1);
  EXPECT_GT(r["sim_seconds"].as_double(), 0.0);

  // Every generated counter field must round-trip bit-exactly: simulated
  // ones in "stats", the two host-measured ones in "host".
  const Json& stats = r["stats"];
  const Json& host = r["host"];
  std::size_t sim_fields = 0, host_fields = 0;
  run().stats.for_each_field([&](const char* name, std::uint64_t v) {
    const bool in_host = is_host_counter(name);
    ++(in_host ? host_fields : sim_fields);
    const Json& block = in_host ? host : stats;
    ASSERT_TRUE(block[name].is_number()) << name;
    EXPECT_EQ(block[name].as_u64(), v) << name;
  });
  EXPECT_EQ(stats.size(), sim_fields);
  EXPECT_EQ(host.size(), host_fields);
  EXPECT_EQ(host_fields, 2u);

  // Checksum survives as a 16-digit hex string.
  const std::string hex = r["checksum_hex"].as_string();
  ASSERT_EQ(hex.size(), 16u);
  EXPECT_EQ(std::stoull(hex, nullptr, 16), run().checksum);

  // Per-iteration profiles made it through with sane invariants.
  ASSERT_EQ(r["iteration_profiles"].size(), run().iterations);
  std::uint64_t processed = 0;
  for (const Json& p : r["iteration_profiles"].elements()) {
    const double rate = p["postpone_rate"].as_double();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    processed += p["records_processed"].as_u64();
  }
  EXPECT_EQ(processed, run().stats.records_processed);

  // The bucket histogram accounts for every bucket, and its chain lengths
  // cannot exceed the distinct key count (the last bin aggregates longer
  // chains, so the weighted sum is a lower bound on keys).
  std::uint64_t entries_lb = 0, buckets = 0;
  const auto& hist = r["bucket_histogram"].elements();
  ASSERT_FALSE(hist.empty());
  for (std::size_t len = 0; len < hist.size(); ++len) {
    buckets += hist[len].as_u64();
    entries_lb += hist[len].as_u64() * len;
  }
  EXPECT_EQ(buckets, small_gpu().num_buckets);
  EXPECT_LE(entries_lb, run().keys);
  EXPECT_GT(entries_lb, 0u);

  // The validator the CLI uses agrees.
  EXPECT_TRUE(m["runs"].at(0)["wall_seconds_host"].is_number());
}

// ---- simulated-time tracing ----

class TracedRun : public ::testing::Test {
 protected:
  // TraceRecorder holds a mutex (non-movable), so the shared instance is
  // built in place and populated once.
  static const TraceRecorder& rec() {
    static TraceRecorder* r = [] {
      auto* rec = new TraceRecorder;
      const apps::AppInfo& app = *apps::find_app("wc");
      const std::string input = app.generate(256u << 10, 7);
      GpuConfig cfg = small_gpu();
      cfg.trace = rec;
      (void)run_wc(input, cfg);
      return rec;
    }();
    return *r;
  }
};

TEST_F(TracedRun, SpansAreMonotoneAndNonOverlappingPerTrack) {
  std::map<int, std::vector<const TraceRecorder::Span*>> by_track;
  for (const auto& s : rec().spans()) by_track[s.track].push_back(&s);
  ASSERT_FALSE(by_track.empty());
  // Device activity must include kernels, h2d staging, and iterations.
  EXPECT_TRUE(by_track.count(TraceRecorder::kTrackKernel));
  EXPECT_TRUE(by_track.count(TraceRecorder::kTrackH2d));
  EXPECT_TRUE(by_track.count(TraceRecorder::kTrackIteration));

  for (auto& [track, spans] : by_track) {
    std::vector<const TraceRecorder::Span*> sorted = spans;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
    // Emission order is already simulated-time order.
    EXPECT_EQ(sorted, spans) << "track " << track;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      EXPECT_LE(sorted[i]->ts_us + sorted[i]->dur_us,
                sorted[i + 1]->ts_us + 1e-6)
          << "track " << track << " span " << i;
    }
    for (const auto* s : sorted) EXPECT_GE(s->dur_us, 0.0);
  }
}

TEST_F(TracedRun, KernelSpansNestInsideIterationSpans) {
  std::vector<const TraceRecorder::Span*> iters;
  for (const auto& s : rec().spans())
    if (s.track == TraceRecorder::kTrackIteration) iters.push_back(&s);
  ASSERT_FALSE(iters.empty());
  for (const auto& s : rec().spans()) {
    if (s.track != TraceRecorder::kTrackKernel) continue;
    const bool inside = std::any_of(
        iters.begin(), iters.end(), [&](const TraceRecorder::Span* it) {
          return s.ts_us >= it->ts_us - 1e-6 &&
                 s.ts_us + s.dur_us <= it->ts_us + it->dur_us + 1e-6;
        });
    EXPECT_TRUE(inside) << "kernel span at " << s.ts_us;
  }
}

TEST_F(TracedRun, TraceJsonIsChromeLoadable) {
  std::string err;
  const auto parsed = Json::parse(rec().trace_json().dump(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  const Json& events = (*parsed)["traceEvents"];
  ASSERT_TRUE(events.is_array());
  std::size_t spans = 0, metadata = 0, counters = 0;
  for (const Json& e : events.elements()) {
    const std::string& ph = e["ph"].as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    if (ph == "i") continue;  // section labels
    if (ph == "C") {          // occupancy counter tracks (PR 7 sampler)
      ++counters;
      EXPECT_TRUE(e["ts"].is_number());
      EXPECT_TRUE(e["args"].is_object());
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++spans;
    EXPECT_TRUE(e["ts"].is_number());
    EXPECT_TRUE(e["dur"].is_number());
    EXPECT_GE(e["tid"].as_i64(), 1);
    EXPECT_LE(e["tid"].as_i64(), 6);
  }
  EXPECT_EQ(spans, rec().spans().size());
  EXPECT_GE(metadata, 2u);  // process_name + at least one thread_name
  // Each occupancy sample renders as two counter events (heap pages +
  // staging in flight).
  EXPECT_EQ(counters, rec().counter_samples().size() * 2);
  EXPECT_GT(counters, 0u);
}

TEST_F(TracedRun, H2dStagingOverlapsComputeInTrace) {
  // BigKernel double-buffering must be visible in the trace: some staging
  // copy runs concurrently with some kernel (the intervals intersect with
  // positive measure). The old analytic model assumed this; the timeline
  // has to earn it from the ring dependencies.
  std::vector<const TraceRecorder::Span*> kernels, h2d;
  for (const auto& s : rec().spans()) {
    if (s.track == TraceRecorder::kTrackKernel) kernels.push_back(&s);
    if (s.track == TraceRecorder::kTrackH2d) h2d.push_back(&s);
  }
  ASSERT_GT(kernels.size(), 1u);
  ASSERT_GT(h2d.size(), 1u);
  bool overlapped = false;
  for (const auto* c : h2d)
    for (const auto* k : kernels) {
      const double lo = std::max(c->ts_us, k->ts_us);
      const double hi =
          std::min(c->ts_us + c->dur_us, k->ts_us + k->dur_us);
      if (hi - lo > 1e-9) overlapped = true;
    }
  EXPECT_TRUE(overlapped);
}

TEST(MetricsDeterminism, IdenticalRunsExportBitIdenticalJson) {
  // Two identical runs must serialize to byte-identical metrics JSON.
  // pool_workers=1 pins the host interleaving (lock_contended and
  // atomic_retries are scheduling-dependent with more workers); the host
  // wall clock is zeroed as the one intentionally host-dependent field.
  auto run_once = [] {
    const apps::AppInfo& app = *apps::find_app("wc");
    const std::string input = app.generate(128u << 10, 13);
    GpuConfig cfg = small_gpu();
    cfg.pool_workers = 1;
    RunResult r = run_wc(input, cfg);
    r.wall_seconds = 0;
    return r;
  };
  const RunResult a = run_once();
  const RunResult b = run_once();

  MetricsReport ra("determinism"), rb("determinism");
  ra.add_run("wc", a);
  rb.add_run("wc", b);
  EXPECT_EQ(ra.to_json().dump(2), rb.to_json().dump(2));
  // The timeline itself is part of that guarantee.
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.timeline.total, b.timeline.total);
  EXPECT_EQ(a.timeline.commands, b.timeline.commands);
}

TEST(TraceDeterminism, SimulatedResultsIdenticalWithAndWithoutTracing) {
  const apps::AppInfo& app = *apps::find_app("wc");
  const std::string input = app.generate(256u << 10, 11);

  // One pool worker on both runs, as in MetricsDeterminism: this checks that
  // tracing leaves the simulation unchanged, not the parallel schedule.
  GpuConfig cfg = small_gpu();
  cfg.pool_workers = 1;
  const RunResult plain = run_wc(input, cfg);
  TraceRecorder rec;
  cfg.trace = &rec;
  const RunResult traced = run_wc(input, cfg);

  // Bit-identical, not approximately equal: recording must not perturb the
  // simulation.
  EXPECT_EQ(plain.sim_seconds, traced.sim_seconds);
  EXPECT_EQ(plain.checksum, traced.checksum);
  EXPECT_EQ(plain.stats, traced.stats);
  EXPECT_EQ(plain.iterations, traced.iterations);
  EXPECT_FALSE(rec.spans().empty());
  EXPECT_GT(rec.timeline_end_seconds(), 0.0);
}

// ---- X-macro counter plumbing ----

TEST(StatsFields, GeneratedPlumbingIsConsistent) {
  gpusim::StatsSnapshot a{};
  std::size_t n = 0;
  a.for_each_field([&](const char*, std::uint64_t) { ++n; });
  EXPECT_EQ(n, 26u);  // update alongside SEPO_STATS_FIELDS

  gpusim::RunStats stats;
  stats.add_hash_ops(3);
  stats.add_records_processed();
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.hash_ops, 3u);
  EXPECT_EQ(snap.records_processed, 1u);

  const auto sum = snap + snap;
  EXPECT_EQ(sum.hash_ops, 6u);
  const auto diff = sum - snap;
  EXPECT_EQ(diff, snap);
#ifdef NDEBUG
  EXPECT_EQ(snap - sum, gpusim::StatsSnapshot{});  // saturating in release
#else
  // Debug builds assert on saturation: a shrinking counter means the deltas
  // were taken at the wrong observation points.
  EXPECT_DEATH(snap - sum, "saturated");
#endif

  stats.reset();
  EXPECT_EQ(stats.snapshot(), gpusim::StatsSnapshot{});
}

}  // namespace
}  // namespace sepo::obs
