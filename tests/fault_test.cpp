// Fault injection (gpusim/fault.hpp): determinism of the seeded injector,
// pricing of retries on the execution timeline, the zero-rate == no-injector
// guarantee, and end-to-end degradation — SEPO stays exactly correct under
// transient transfer faults and memory pressure (more iterations, never
// wrong answers), while baselines without a postponement story surface a
// typed RunError.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/engine.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"
#include "obs/journal.hpp"
#include "test_util.hpp"

namespace sepo::gpusim {
namespace {

using test::Rig;

// ---- injector unit tests ----

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultConfig cfg;
  cfg.seed = 1234;
  cfg.h2d_rate = 0.3;
  cfg.remote_rate = 0.1;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.draw_h2d(), b.draw_h2d()) << i;
    EXPECT_EQ(a.draw_remote_failures(100), b.draw_remote_failures(100)) << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedDifferentSchedule) {
  FaultConfig cfg;
  cfg.h2d_rate = 0.5;
  cfg.seed = 1;
  FaultInjector a(cfg);
  cfg.seed = 2;
  FaultInjector b(cfg);
  int differing = 0;
  for (int i = 0; i < 200; ++i)
    if (a.draw_h2d() != b.draw_h2d()) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, ZeroRatesDrawNothing) {
  FaultConfig cfg;  // all rates zero
  EXPECT_FALSE(cfg.enabled());
  FaultInjector f(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(f.draw_h2d());
    EXPECT_FALSE(f.draw_d2h());
    EXPECT_FALSE(f.draw_kernel_abort());
    EXPECT_EQ(f.draw_remote_failures(1000), 0u);
  }
  bool new_spike = true;
  EXPECT_EQ(f.pressure_target(64, new_spike), 0u);
  EXPECT_FALSE(new_spike);
}

// A rate-zero class must not consume from the random stream: enabling h2d
// faults may not perturb the d2h schedule, so the h2d draw sequence is the
// same whether or not other classes are configured.
TEST(FaultInjectorTest, ZeroRateClassesDoNotPerturbOthers) {
  FaultConfig only_h2d;
  only_h2d.seed = 99;
  only_h2d.h2d_rate = 0.4;
  FaultConfig both = only_h2d;
  both.d2h_rate = 0.0;  // explicit: still zero
  FaultInjector a(only_h2d), b(both);
  for (int i = 0; i < 300; ++i) {
    EXPECT_FALSE(b.draw_d2h());  // consumes nothing
    EXPECT_EQ(a.draw_h2d(), b.draw_h2d()) << i;
  }
}

TEST(FaultInjectorTest, BackoffIsBoundedExponential) {
  FaultConfig cfg;
  cfg.backoff_base_s = 1e-6;
  cfg.backoff_cap_s = 1e-5;
  FaultInjector f(cfg);
  EXPECT_DOUBLE_EQ(f.backoff_s(1), 1e-6);
  EXPECT_DOUBLE_EQ(f.backoff_s(2), 2e-6);
  EXPECT_DOUBLE_EQ(f.backoff_s(3), 4e-6);
  EXPECT_DOUBLE_EQ(f.backoff_s(4), 8e-6);
  EXPECT_DOUBLE_EQ(f.backoff_s(5), 1e-5);   // capped
  EXPECT_DOUBLE_EQ(f.backoff_s(50), 1e-5);  // stays capped, no overflow
}

TEST(FaultInjectorTest, PressureSpikeHoldsForConfiguredIterations) {
  FaultConfig cfg;
  cfg.pressure_rate = 1.0;  // spike begins immediately
  cfg.pressure_frac = 0.5;
  cfg.pressure_hold_iterations = 2;
  FaultInjector f(cfg);
  bool new_spike = false;
  // Iteration 1: spike begins, seizing half of 64 pages.
  EXPECT_EQ(f.pressure_target(64, new_spike), 32u);
  EXPECT_TRUE(new_spike);
  // Iteration 2: still holding (no new spike).
  EXPECT_EQ(f.pressure_target(64, new_spike), 32u);
  EXPECT_FALSE(new_spike);
  // Iteration 3: the hold expires and the pages are released for one
  // iteration before a fresh spike can be drawn.
  EXPECT_EQ(f.pressure_target(64, new_spike), 0u);
  EXPECT_FALSE(new_spike);
  // Iteration 4: with rate 1.0 a fresh spike begins.
  EXPECT_EQ(f.pressure_target(64, new_spike), 32u);
  EXPECT_TRUE(new_spike);
}

TEST(FaultInjectorTest, RemoteFailuresClampToTransactionCount) {
  FaultConfig cfg;
  cfg.remote_rate = 1.0;
  FaultInjector f(cfg);
  EXPECT_EQ(f.draw_remote_failures(10), 10u);
  EXPECT_EQ(f.draw_remote_failures(0), 0u);
}

// ---- flag parsing ----

TEST(ApplyFaultFlagTest, ParsesKnownFlags) {
  FaultConfig cfg;
  EXPECT_TRUE(apply_fault_flag(cfg, "--fault-seed", "77"));
  EXPECT_TRUE(apply_fault_flag(cfg, "--fault-h2d-rate", "0.25"));
  EXPECT_TRUE(apply_fault_flag(cfg, "--fault-pressure", "0.5"));
  EXPECT_TRUE(apply_fault_flag(cfg, "--fault-max-retries", "3"));
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_DOUBLE_EQ(cfg.h2d_rate, 0.25);
  EXPECT_DOUBLE_EQ(cfg.pressure_rate, 0.5);
  EXPECT_EQ(cfg.max_retries, 3u);
  EXPECT_TRUE(cfg.enabled());
}

TEST(ApplyFaultFlagTest, RejectsGarbageAndOutOfRange) {
  FaultConfig cfg;
  EXPECT_THROW((void)apply_fault_flag(cfg, "--fault-h2d-rate", "abc"),
               std::invalid_argument);
  EXPECT_THROW((void)apply_fault_flag(cfg, "--fault-h2d-rate", "1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)apply_fault_flag(cfg, "--fault-seed", ""),
               std::invalid_argument);
  EXPECT_FALSE(apply_fault_flag(cfg, "--not-a-fault-flag", "1"));
  EXPECT_FALSE(cfg.enabled());  // nothing was applied
}

// ---- execution-path pricing ----

// A transient h2d fault must be *priced*: the failed attempt occupies the
// h2d engine at full transfer cost, the backoff span follows it, and both
// the per-engine FaultSummary and the RunStats counters record it.
TEST(FaultExecTest, TransferRetriesArePricedOnTheEngine) {
  Rig plain(1u << 20), faulty(1u << 20);
  const DevPtr p1 = plain.dev.alloc_static(4096);
  const DevPtr p2 = faulty.dev.alloc_static(4096);
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.h2d_rate = 0.5;
  FaultInjector inj(cfg);
  faulty.ctx.set_faults(&inj);

  char buf[4096] = {1};
  std::uint64_t faults_seen = 0;
  for (int i = 0; i < 32; ++i) {
    (void)plain.ctx.stage_h2d(p1, buf, sizeof buf);
    (void)faulty.ctx.stage_h2d(p2, buf, sizeof buf);
  }
  const FaultSummary& fs = faulty.ctx.timeline().fault_summary();
  faults_seen = fs.engine[static_cast<int>(TimelineResource::kCopyH2d)].faults;
  ASSERT_GT(faults_seen, 0u) << "seed 5 at 50% must fault at least once";
  EXPECT_EQ(fs.total_faults(), faults_seen);
  EXPECT_GT(fs.total_backoff_s(), 0.0);
  EXPECT_EQ(faulty.stats.snapshot().faults_h2d, faults_seen);
  EXPECT_EQ(faulty.stats.snapshot().fault_retries, faults_seen);
  // Each failed attempt was re-metered on the bus at full cost...
  EXPECT_EQ(faulty.dev.bus().snapshot().h2d_txns, 32u + faults_seen);
  // ...so simulated time under faults strictly exceeds the clean run.
  EXPECT_GT(faulty.ctx.sim_elapsed(), plain.ctx.sim_elapsed());
  // The fault-free timeline recorded no fault state at all.
  EXPECT_EQ(plain.ctx.timeline().fault_summary().total_faults(), 0u);
}

TEST(FaultExecTest, RetryExhaustionThrowsFaultError) {
  Rig rig(1u << 20);
  const DevPtr p = rig.dev.alloc_static(256);
  FaultConfig cfg;
  cfg.h2d_rate = 1.0;  // every attempt fails
  cfg.max_retries = 3;
  FaultInjector inj(cfg);
  rig.ctx.set_faults(&inj);
  char buf[256] = {};
  EXPECT_THROW((void)rig.ctx.stage_h2d(p, buf, sizeof buf), FaultError);
  const FaultSummary& fs = rig.ctx.timeline().fault_summary();
  // max_retries priced faulted attempts; the exhausting draw throws before
  // scheduling another retry.
  EXPECT_EQ(fs.engine[static_cast<int>(TimelineResource::kCopyH2d)].faults,
            3u);
}

TEST(FaultExecTest, KernelAbortsArePricedAndRetried) {
  Rig rig(1u << 20);
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.kernel_abort_rate = 0.5;
  FaultInjector inj(cfg);
  rig.ctx.set_faults(&inj);
  std::atomic<std::uint64_t> executed{0};
  for (int i = 0; i < 24; ++i)
    (void)rig.ctx.launch(8, [&](std::size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  // Every launch eventually executed exactly once despite aborts.
  EXPECT_EQ(executed.load(), 24u * 8u);
  const FaultSummary& fs = rig.ctx.timeline().fault_summary();
  const auto& compute = fs.engine[static_cast<int>(TimelineResource::kCompute)];
  ASSERT_GT(compute.faults, 0u);
  EXPECT_EQ(rig.stats.snapshot().kernel_aborts, compute.faults);
  // Aborted launches never touch the kernel counters.
  EXPECT_EQ(rig.stats.snapshot().kernel_launches, 24u);
}

// The load-bearing regression: an installed injector whose rates are all
// zero must be bit-identical to running with no injector at all — same
// simulated time, same counters, same timeline shape.
TEST(FaultExecTest, ZeroRateConfigBitIdenticalToNoInjector) {
  Rig without(1u << 20), with(1u << 20);
  FaultConfig cfg;  // all rates zero
  FaultInjector inj(cfg);
  with.ctx.set_faults(&inj);

  const DevPtr pa = without.dev.alloc_static(8192);
  const DevPtr pb = with.dev.alloc_static(8192);
  char buf[8192] = {3};
  for (Rig* r : {&without, &with}) {
    const DevPtr p = r == &without ? pa : pb;
    for (int i = 0; i < 8; ++i) {
      const Event staged = r->ctx.stage_h2d(p, buf, sizeof buf);
      (void)r->ctx.launch(64, [](std::size_t) {}, {}, staged);
      (void)r->ctx.flush_d2h(4096);
    }
  }
  EXPECT_EQ(without.ctx.sim_elapsed(), with.ctx.sim_elapsed());  // bit-exact
  EXPECT_EQ(without.stats.snapshot(), with.stats.snapshot());
  const TimelineSummary a = without.ctx.timeline().summary();
  const TimelineSummary b = with.ctx.timeline().summary();
  EXPECT_EQ(a.commands, b.commands);
  EXPECT_EQ(a.compute_busy, b.compute_busy);
  EXPECT_EQ(a.h2d_busy, b.h2d_busy);
  EXPECT_EQ(a.d2h_busy, b.d2h_busy);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(with.ctx.timeline().fault_summary().total_faults(), 0u);
}

// ---- end-to-end degradation ----

// One pool worker pins the host interleaving (with more workers the schedule
// moves lock_contended, atomic_retries and postponements run to run): these
// tests check what faults do to a run, not that the schedule is deterministic.
apps::RunResult run_pvc(const std::string& input, const FaultConfig& faults) {
  apps::EngineConfig cfg;
  cfg.gpu.pool_workers = 1;
  cfg.gpu.faults = faults;
  return apps::find_engine("sepo-gpu")->run(*apps::find_app("pvc"), input,
                                             cfg);
}

TEST(FaultAppTest, SepoExactlyCorrectUnderTransferFaults) {
  const apps::AppInfo& app = *apps::find_app("pvc");
  const std::string input = app.generate(1u << 20, 42);
  const apps::RunResult clean = run_pvc(input, {});
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.h2d_rate = 0.1;
  cfg.d2h_rate = 0.1;
  const apps::RunResult faulted = run_pvc(input, cfg);
  ASSERT_FALSE(faulted.error) << faulted.error.message;
  // Transient faults cost time, never correctness: identical table digest.
  EXPECT_EQ(faulted.checksum, clean.checksum);
  EXPECT_EQ(faulted.keys, clean.keys);
  EXPECT_GT(faulted.faults.total_faults(), 0u);
  EXPECT_GT(faulted.sim_seconds, clean.sim_seconds);
  EXPECT_EQ(clean.faults.total_faults(), 0u);
}

TEST(FaultAppTest, PressurePostponesButNeverCorrupts) {
  const apps::AppInfo& app = *apps::find_app("pvc");
  const std::string input = app.generate(1u << 20, 43);
  const apps::RunResult clean = run_pvc(input, {});
  FaultConfig cfg;
  cfg.seed = 9;
  cfg.pressure_rate = 0.8;
  cfg.pressure_frac = 0.5;
  cfg.pressure_hold_iterations = 2;
  const apps::RunResult squeezed = run_pvc(input, cfg);
  ASSERT_FALSE(squeezed.error) << squeezed.error.message;
  // Persistent heap pressure turns into SEPO postponement: extra iterations
  // (paper §III graceful degradation), identical results.
  EXPECT_GE(squeezed.iterations, clean.iterations);
  EXPECT_GT(squeezed.stats.pressure_spikes, 0u);
  EXPECT_EQ(squeezed.checksum, clean.checksum);
  EXPECT_EQ(squeezed.keys, clean.keys);
}

TEST(FaultAppTest, IdenticalSeedAndConfigIsDeterministic) {
  const apps::AppInfo& app = *apps::find_app("pvc");
  const std::string input = app.generate(512u << 10, 44);
  FaultConfig cfg;
  cfg.seed = 21;
  cfg.h2d_rate = 0.15;
  cfg.d2h_rate = 0.05;
  cfg.pressure_rate = 0.5;
  const apps::RunResult a = run_pvc(input, cfg);
  const apps::RunResult b = run_pvc(input, cfg);
  // Bit-identical, not approximately equal: the fault schedule is part of
  // the deterministic simulation (wall_seconds is host time and excluded).
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.faults.total_faults(), b.faults.total_faults());
  EXPECT_EQ(a.faults.total_backoff_s(), b.faults.total_backoff_s());
}

TEST(FaultAppTest, PinnedBaselineSurfacesTypedErrorOnRemoteExhaustion) {
  const apps::AppInfo& app = *apps::find_app("pvc");
  const std::string input = app.generate(256u << 10, 45);
  apps::EngineConfig cfg;
  cfg.gpu.faults.seed = 3;
  cfg.gpu.faults.remote_rate = 0.9;  // remote txns fail past the budget
  cfg.gpu.faults.max_retries = 2;
  const apps::RunResult r = apps::find_engine("pinned")->run(app, input, cfg);
  ASSERT_TRUE(r.error);
  EXPECT_EQ(r.error.kind, apps::RunError::Kind::kFaultRetriesExhausted);
  EXPECT_FALSE(r.error.message.empty());
  EXPECT_STREQ(r.error.kind_name(), "fault_retries_exhausted");
  // The failure is visible in the fault telemetry, not silently swallowed.
  EXPECT_GT(r.faults.engine[static_cast<int>(TimelineResource::kRemote)]
                .retries,
            0u);
}

// Chaos post-mortem: a run killed by retry exhaustion must leave a usable
// black box behind — the journal dump exists, every line is valid JSONL,
// events are in simulated-time order, and the tail carries the exhausting
// retry chain that explains the death.
TEST(FaultAppTest, PostMortemJournalSurvivesRetryExhaustion) {
  const apps::AppInfo& app = *apps::find_app("pvc");
  const std::string input = app.generate(256u << 10, 46);
  EventJournal journal;
  apps::EngineConfig cfg;
  cfg.gpu.faults.h2d_rate = 1.0;  // the very first staging copy exhausts
  cfg.gpu.faults.max_retries = 2;
  cfg.gpu.journal = &journal;
  const apps::RunResult r = apps::find_engine("sepo-gpu")->run(app, input, cfg);
  ASSERT_TRUE(r.error);
  EXPECT_EQ(r.error.kind, apps::RunError::Kind::kFaultRetriesExhausted);

  const std::string path = testing::TempDir() + "postmortem.jsonl";
  std::string err;
  ASSERT_TRUE(obs::write_journal_jsonl(journal, path, 4096, &err)) << err;
  // read_journal_jsonl fails on any malformed line, so a successful read is
  // the valid-JSONL check.
  const auto events = obs::read_journal_jsonl(path, &err);
  ASSERT_TRUE(events.has_value()) << err;
  ASSERT_FALSE(events->empty());

  std::uint64_t retries = 0, exhausted = 0;
  double prev_ts = 0;
  for (const JournalEvent& e : *events) {
    EXPECT_GE(e.sim_ts, prev_ts);
    prev_ts = e.sim_ts;
    const auto h2d = static_cast<std::uint64_t>(TimelineResource::kCopyH2d);
    if (e.kind == JournalEventKind::kFaultRetry && e.arg0 == h2d) ++retries;
    if (e.kind == JournalEventKind::kFaultExhausted) {
      ++exhausted;
      EXPECT_EQ(e.arg0, h2d);
      EXPECT_EQ(e.arg1, cfg.gpu.faults.max_retries);
    }
  }
  EXPECT_GE(retries, cfg.gpu.faults.max_retries);
  EXPECT_EQ(exhausted, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sepo::gpusim
