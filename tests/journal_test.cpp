// Flight recorder (gpusim/journal.hpp + obs/journal.hpp): ring-buffer
// semantics of the per-worker shards, the (sim_ts, seq, worker) merge order,
// the JSONL dump/parse round trip, the events the wired execution path
// actually records, and the two invariants the recorder must never break —
// journal-on vs journal-off runs are bit-identical, and the always-on
// occupancy sampler emits exactly one sample per SEPO iteration.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace sepo::gpusim {
namespace {

using test::Rig;

// The drain() contract: non-decreasing (sim_ts, seq, worker).
bool merge_ordered(const std::vector<JournalEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    const JournalEvent& a = events[i - 1];
    const JournalEvent& b = events[i];
    if (a.sim_ts != b.sim_ts) {
      if (a.sim_ts > b.sim_ts) return false;
    } else if (a.seq != b.seq) {
      if (a.seq > b.seq) return false;
    } else if (a.worker > b.worker) {
      return false;
    }
  }
  return true;
}

TEST(JournalTest, RecordAndDrainSingleShard) {
  EventJournal j(1, 8);
  j.set_now(1.5);
  j.record(JournalEventKind::kPageAcquire, 3, 2);
  j.set_now(2.0);
  j.record(JournalEventKind::kPageRelease, 3, 3);
  const auto events = j.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, JournalEventKind::kPageAcquire);
  EXPECT_DOUBLE_EQ(events[0].sim_ts, 1.5);
  EXPECT_EQ(events[0].arg0, 3u);
  EXPECT_EQ(events[0].arg1, 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].kind, JournalEventKind::kPageRelease);
  EXPECT_DOUBLE_EQ(events[1].sim_ts, 2.0);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(j.events_recorded(), 2u);
  EXPECT_EQ(j.events_overwritten(), 0u);
}

TEST(JournalTest, RingOverwriteKeepsNewestWindow) {
  EventJournal j(1, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    j.set_now(static_cast<double>(i));
    j.record(JournalEventKind::kKernelLaunch, i, 0);
  }
  const auto events = j.drain();
  ASSERT_EQ(events.size(), 4u);
  // A flight recorder keeps the tail: the last 4 of the 10 records.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg0, 6 + i);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
  EXPECT_EQ(j.events_recorded(), 10u);
  EXPECT_EQ(j.events_overwritten(), 6u);
}

TEST(JournalTest, DrainMergesShardsInTimestampOrder) {
  ThreadPool pool(4);
  EventJournal j(pool.worker_count(), 64);
  j.set_now(0.5);
  // Records land in the calling worker's shard; the pool decides which
  // worker runs which grid index, so the shard fill pattern is arbitrary —
  // exactly what the merge has to cope with.
  pool.parallel_for(pool.worker_count(), [&](std::size_t t) {
    for (std::uint64_t k = 0; k < 5; ++k)
      j.record(JournalEventKind::kPageAcquire, t, k);
  });
  const auto events = j.drain();
  EXPECT_EQ(events.size(), 5u * pool.worker_count());
  EXPECT_TRUE(merge_ordered(events));
  EXPECT_EQ(j.events_recorded(), 5u * pool.worker_count());
}

TEST(JournalTest, KindNamesRoundTripThroughParser) {
  for (int k = 0; k < kNumJournalEventKinds; ++k) {
    const auto kind = static_cast<JournalEventKind>(k);
    const auto parsed = obs::journal_kind_from_name(journal_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << journal_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs::journal_kind_from_name("not_a_kind").has_value());
  EXPECT_FALSE(obs::journal_kind_from_name("").has_value());
}

TEST(JournalTest, JsonlDumpRoundTrips) {
  EventJournal j(1, 16);
  j.set_now(0.25);
  j.record(JournalEventKind::kKernelLaunch, 128, 0);
  j.set_now(0.50);
  j.record(JournalEventKind::kKernelFinish, 128, 999);
  j.set_now(0.75);
  j.record(JournalEventKind::kFlushBarrier, 0, 4096);

  const std::string path = testing::TempDir() + "journal_roundtrip.jsonl";
  std::string err;
  ASSERT_TRUE(obs::write_journal_jsonl(j, path, 4096, &err)) << err;
  const auto back = obs::read_journal_jsonl(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  const auto original = j.drain();
  ASSERT_EQ(back->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ((*back)[i].sim_ts, original[i].sim_ts);
    EXPECT_EQ((*back)[i].seq, original[i].seq);
    EXPECT_EQ((*back)[i].worker, original[i].worker);
    EXPECT_EQ((*back)[i].kind, original[i].kind);
    EXPECT_EQ((*back)[i].arg0, original[i].arg0);
    EXPECT_EQ((*back)[i].arg1, original[i].arg1);
  }
  std::remove(path.c_str());
}

TEST(JournalTest, JsonlDumpHonorsMaxEventsWindow) {
  EventJournal j(1, 16);
  for (std::uint64_t i = 0; i < 6; ++i) {
    j.set_now(static_cast<double>(i));
    j.record(JournalEventKind::kPageAcquire, i, 0);
  }
  const std::string path = testing::TempDir() + "journal_window.jsonl";
  std::string err;
  ASSERT_TRUE(obs::write_journal_jsonl(j, path, /*max_events=*/2, &err))
      << err;
  const auto back = obs::read_journal_jsonl(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  ASSERT_EQ(back->size(), 2u);
  // Newest window: the dump keeps the last events, not the first.
  EXPECT_EQ((*back)[0].arg0, 4u);
  EXPECT_EQ((*back)[1].arg0, 5u);
  std::remove(path.c_str());
}

TEST(JournalTest, ReadRejectsMalformedLines) {
  const std::string path = testing::TempDir() + "journal_bad.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"ts\": 0.1, \"kind\": \"page_acquire\"}\n", f);
  std::fputs("{\"ts\": 0.2, \"kind\": \"no_such_kind\"}\n", f);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(obs::read_journal_jsonl(path, &err).has_value());
  EXPECT_NE(err.find(":2:"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ---- execution-path wiring ----

TEST(JournalTest, ExecContextRecordsKernelAndFlushEvents) {
  Rig rig(1u << 20);
  EventJournal j;
  rig.ctx.set_journal(&j);
  const DevPtr p = rig.dev.alloc_static(4096);
  char buf[4096] = {1};
  const Event staged = rig.ctx.stage_h2d(p, buf, sizeof buf);
  (void)rig.ctx.launch(64, [](std::size_t) {}, {}, staged);
  (void)rig.ctx.flush_d2h(2048);

  const auto events = j.drain();
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(merge_ordered(events));
  std::uint64_t launches = 0, finishes = 0, flushes = 0;
  for (const JournalEvent& e : events) {
    if (e.kind == JournalEventKind::kKernelLaunch) {
      ++launches;
      EXPECT_EQ(e.arg0, 64u);
    }
    if (e.kind == JournalEventKind::kKernelFinish) ++finishes;
    if (e.kind == JournalEventKind::kFlushBarrier) {
      ++flushes;
      EXPECT_EQ(e.arg1, 2048u);
    }
  }
  EXPECT_EQ(launches, 1u);
  EXPECT_EQ(finishes, 1u);
  EXPECT_EQ(flushes, 1u);
}

TEST(JournalTest, FaultRetryChainIsJournaled) {
  Rig rig(1u << 20);
  EventJournal j;
  rig.ctx.set_journal(&j);
  FaultConfig cfg;
  cfg.h2d_rate = 1.0;  // every attempt fails
  cfg.max_retries = 2;
  FaultInjector inj(cfg);
  rig.ctx.set_faults(&inj);
  const DevPtr p = rig.dev.alloc_static(256);
  char buf[256] = {};
  EXPECT_THROW((void)rig.ctx.stage_h2d(p, buf, sizeof buf), FaultError);

  std::uint64_t retries = 0, backoffs = 0, exhausted = 0;
  for (const JournalEvent& e : j.drain()) {
    const auto h2d = static_cast<std::uint64_t>(TimelineResource::kCopyH2d);
    if (e.kind == JournalEventKind::kFaultRetry) {
      ++retries;
      EXPECT_EQ(e.arg0, h2d);
    }
    if (e.kind == JournalEventKind::kFaultBackoff) ++backoffs;
    if (e.kind == JournalEventKind::kFaultExhausted) {
      ++exhausted;
      EXPECT_EQ(e.arg0, h2d);
      EXPECT_EQ(e.arg1, 2u);  // max_retries
    }
  }
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(backoffs, 2u);
  EXPECT_EQ(exhausted, 1u);
}

// ---- whole-run invariants ----

// The load-bearing regression: installing a journal must not perturb the
// simulation. Everything except host wall clock is compared through the
// full metrics serialization — bit-identical JSON.
TEST(JournalTest, JournalOnOffRunsAreBitIdentical) {
  const apps::AppInfo& app = *apps::find_app("pvc");
  const apps::Engine& sepo = *apps::find_engine("sepo-gpu");
  const std::string input = app.generate(512u << 10, 42);
  // One pool worker on both runs: this checks that the journal leaves the
  // simulation unchanged, not that the parallel schedule is deterministic.
  apps::EngineConfig plain_cfg;
  plain_cfg.gpu.pool_workers = 1;
  apps::RunResult plain = sepo.run(app, input, plain_cfg);
  EventJournal j;
  apps::EngineConfig journal_cfg;
  journal_cfg.gpu.pool_workers = 1;
  journal_cfg.gpu.journal = &j;
  apps::RunResult recorded = sepo.run(app, input, journal_cfg);
  ASSERT_FALSE(plain.error);
  ASSERT_FALSE(recorded.error);
  EXPECT_GT(j.events_recorded(), 0u);
  // Host wall clock is the one legitimately differing field.
  plain.wall_seconds = 0;
  recorded.wall_seconds = 0;
  EXPECT_EQ(obs::to_json(plain).dump(), obs::to_json(recorded).dump());
}

TEST(JournalTest, SamplerEmitsOneOccupancySamplePerIteration) {
  const apps::AppInfo& app = *apps::find_app("pvc");
  const std::string input = app.generate(512u << 10, 43);
  const apps::RunResult r = apps::find_engine("sepo-gpu")->run(app, input, {});
  ASSERT_FALSE(r.error);
  ASSERT_GT(r.iterations, 0u);
  ASSERT_EQ(r.timeseries.size(), r.iterations);
  double prev_ts = 0;
  for (std::size_t i = 0; i < r.timeseries.size(); ++i) {
    const OccupancySample& s = r.timeseries[i];
    EXPECT_EQ(s.iteration, i + 1);
    EXPECT_GE(s.sim_ts, prev_ts);
    prev_ts = s.sim_ts;
    EXPECT_GT(s.pages_total, 0u);
    EXPECT_LE(s.pages_free, s.pages_total);
    EXPECT_GT(s.staging_slots, 0u);
    EXPECT_LE(s.staging_busy, s.staging_slots);
    EXPECT_GE(s.engine_end[0], 0.0);
  }
  // Samples ride into the metrics file as the v4 "timeseries" array.
  const obs::Json run_json = obs::to_json(r);
  ASSERT_TRUE(run_json["timeseries"].is_array());
  EXPECT_EQ(run_json["timeseries"].size(), r.timeseries.size());
}

// The flush returns every page of a spilling pass to the pool, so the
// free count after it says nothing about the pass. The sample's
// pages_used_peak is read just before the flush: on DNA Assembly #4 the
// first pass fills all 415 heap pages before it postpones.
TEST(OccupancyPeakTest, DnaDataset4FirstPassFillsTheHeap) {
  const apps::AppInfo& app = *apps::find_app("dna");
  const std::string input = app.generate(apps::table1_bytes("dna", 4), 42);
  const apps::RunResult r = apps::find_engine("sepo-gpu")->run(app, input, {});
  ASSERT_FALSE(r.error);
  ASSERT_GT(r.timeseries.size(), 1u);
  for (const OccupancySample& s : r.timeseries) {
    EXPECT_EQ(s.pages_total, 415u);
    EXPECT_EQ(s.pages_free, s.pages_total) << "iteration " << s.iteration;
    EXPECT_LE(s.pages_used_peak, s.pages_total);
  }
  EXPECT_EQ(r.timeseries.front().pages_used_peak, 415u);
  EXPECT_LT(r.timeseries.back().pages_used_peak, 415u);
  EXPECT_EQ(obs::to_json(r)["timeseries"].at(0)["pages_used_peak"].as_u64(),
            415u);
}

}  // namespace
}  // namespace sepo::gpusim
