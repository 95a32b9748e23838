// Discrete-event timeline tests: streams serialize their own commands,
// resources are serial engines, cross-stream waits express dependencies,
// the BigKernel ring bounds h2d/compute overlap by its depth, flushes act
// as barriers, and schedules are deterministic run to run.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bigkernel/pipeline.hpp"
#include "common/progress.hpp"
#include "common/strings.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/stream.hpp"
#include "test_util.hpp"

namespace sepo::gpusim {
namespace {

Timeline make_timeline() { return Timeline(kGpuDesc, PcieParams{}); }

TEST(TimelineTest, ResourceIsASerialEngine) {
  Timeline tl = make_timeline();
  const Event a = tl.schedule(TimelineCommandKind::kH2dCopy,
                              TimelineResource::kCopyH2d, 0.0, 1.0, 0, 0);
  // Ready long before the engine frees up: starts when the engine is free.
  const Event b = tl.schedule(TimelineCommandKind::kH2dCopy,
                              TimelineResource::kCopyH2d, 0.0, 2.0, 0, 0);
  EXPECT_DOUBLE_EQ(a.at, 1.0);
  EXPECT_DOUBLE_EQ(b.at, 3.0);
  EXPECT_DOUBLE_EQ(tl.commands()[1].start, 1.0);
  // A later ready time pushes the start past the engine's free time.
  const Event c = tl.schedule(TimelineCommandKind::kH2dCopy,
                              TimelineResource::kCopyH2d, 10.0, 1.0, 0, 0);
  EXPECT_DOUBLE_EQ(c.at, 11.0);
}

TEST(TimelineTest, DistinctResourcesOverlap) {
  Timeline tl = make_timeline();
  tl.schedule(TimelineCommandKind::kH2dCopy, TimelineResource::kCopyH2d, 0.0,
              5.0, 0, 0);
  tl.schedule(TimelineCommandKind::kKernel, TimelineResource::kCompute, 0.0,
              3.0, 0, 0);
  // Both start at zero: engines are independent.
  EXPECT_DOUBLE_EQ(tl.commands()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(tl.commands()[1].start, 0.0);
  EXPECT_DOUBLE_EQ(tl.total_end(), 5.0);
  const TimelineSummary s = tl.summary();
  EXPECT_DOUBLE_EQ(s.h2d_busy, 5.0);
  EXPECT_DOUBLE_EQ(s.compute_busy, 3.0);
  EXPECT_EQ(s.commands, 2u);
}

TEST(StreamTest, CommandsOnOneStreamNeverOverlap) {
  Timeline tl = make_timeline();
  Stream s(tl);
  const Event a = s.h2d(1 << 20);
  const Event b = s.h2d(1 << 20);
  ASSERT_EQ(tl.commands().size(), 2u);
  EXPECT_GE(tl.commands()[1].start, tl.commands()[0].end);
  EXPECT_GT(b.at, a.at);
}

TEST(StreamTest, WaitSerializesAcrossStreams) {
  Timeline tl = make_timeline();
  Stream copy(tl), compute(tl);
  const Event staged = copy.h2d(1 << 20);
  compute.wait(staged);
  StatsSnapshot delta{};
  delta.work_units = 1u << 20;
  compute.kernel(delta, 4096);
  // The kernel is on a different resource but must not start before the
  // copy it waited on completed.
  ASSERT_EQ(tl.commands().size(), 2u);
  EXPECT_GE(tl.commands()[1].start, staged.at - 1e-12);
}

TEST(StreamTest, DefaultEventIsAlreadySignaled) {
  Timeline tl = make_timeline();
  Stream s(tl);
  s.wait(Event{});  // must not delay anything
  const Event a = s.h2d(64);
  EXPECT_DOUBLE_EQ(tl.commands()[0].start, 0.0);
  EXPECT_GT(a.at, 0.0);
}

// ---- ExecContext scheduling semantics ----

// Drives a small pipeline pass and returns the scheduled command list.
std::vector<TimelineCommand> run_pipeline_pass(std::size_t staging_buffers,
                                               std::size_t* chunks_out) {
  test::Rig rig(1u << 20, /*workers=*/2);
  std::string input;
  for (int i = 0; i < 4096; ++i) input += "record-" + std::to_string(i) + "\n";
  const RecordIndex idx = index_lines(input);
  bigkernel::PipelineConfig cfg;
  cfg.records_per_chunk = 512;
  cfg.max_chunk_bytes = 16u << 10;
  cfg.num_staging_buffers = staging_buffers;
  bigkernel::InputPipeline pipe(rig.ctx, cfg);
  ProgressTracker progress(idx.size());
  const auto pass = pipe.run_pass(
      input, idx, progress,
      [](std::size_t, std::string_view) { return core::Status::kSuccess; });
  if (chunks_out) *chunks_out = pass.chunks_staged;
  return rig.ctx.timeline().commands();
}

TEST(ExecContextTest, SingleStagingBufferFullySerializes) {
  std::size_t chunks = 0;
  const auto cmds = run_pipeline_pass(1, &chunks);
  ASSERT_GT(chunks, 2u);
  // With one ring slot, staging chunk k+1 must wait for kernel k (the slot's
  // last reader): no copy may start before every earlier kernel ended.
  double last_kernel_end = 0;
  for (const auto& c : cmds) {
    if (c.kind == TimelineCommandKind::kKernel) {
      last_kernel_end = c.end;
    } else if (c.kind == TimelineCommandKind::kH2dCopy) {
      EXPECT_GE(c.start, last_kernel_end - 1e-12);
    }
  }
}

TEST(ExecContextTest, RingDepthAdmitsOverlapBoundedByBufferCount) {
  std::size_t chunks = 0;
  const auto cmds = run_pipeline_pass(2, &chunks);
  ASSERT_GT(chunks, 2u);
  std::vector<TimelineCommand> h2d, kernels;
  for (const auto& c : cmds) {
    if (c.kind == TimelineCommandKind::kH2dCopy) h2d.push_back(c);
    if (c.kind == TimelineCommandKind::kKernel) kernels.push_back(c);
  }
  ASSERT_EQ(h2d.size(), kernels.size());
  ASSERT_EQ(h2d.size(), chunks);
  // Double-buffering: staging of chunk k+1 overlaps the kernel on chunk k
  // for at least one pair (the BigKernel property).
  bool overlapped = false;
  for (std::size_t k = 0; k + 1 < h2d.size(); ++k)
    if (h2d[k + 1].start < kernels[k].end - 1e-12) overlapped = true;
  EXPECT_TRUE(overlapped);
  // ...but never runs more than num_staging_buffers ahead: staging of chunk
  // k+2 requires the slot kernel k used, so it cannot start before that
  // kernel ends.
  for (std::size_t k = 0; k + 2 < h2d.size(); ++k)
    EXPECT_GE(h2d[k + 2].start, kernels[k].end - 1e-12) << "chunk " << k + 2;
  // Each kernel still waits for its own chunk's staging.
  for (std::size_t k = 0; k < kernels.size(); ++k)
    EXPECT_GE(kernels[k].start, h2d[k].end - 1e-12) << "chunk " << k;
}

TEST(ExecContextTest, FlushIsABarrierAcrossStreams) {
  test::Rig rig(1u << 20, /*workers=*/1);
  std::vector<std::byte> host(32u << 10);
  const DevPtr buf = rig.dev.alloc_static(host.size());

  // Queue work on both engines, then flush, then queue more.
  rig.ctx.stage_h2d(buf, host.data(), host.size());
  rig.ctx.launch(64, [](std::size_t) {});
  const Event flush = rig.ctx.flush_d2h(8u << 10);
  rig.ctx.stage_h2d(buf, host.data(), host.size());
  rig.ctx.launch(64, [](std::size_t) {});

  const auto& cmds = rig.ctx.timeline().commands();
  ASSERT_EQ(cmds.size(), 5u);
  const auto& pre_kernel = cmds[1];
  const auto& d2h = cmds[2];
  const auto& post_h2d = cmds[3];
  const auto& post_kernel = cmds[4];
  ASSERT_EQ(d2h.kind, TimelineCommandKind::kD2hFlush);
  // The flush waits for all queued compute ("flushes halt computation").
  EXPECT_GE(d2h.start, pre_kernel.end - 1e-12);
  // Nothing resumes — on either engine — until the flush completed.
  EXPECT_GE(post_h2d.start, flush.at - 1e-12);
  EXPECT_GE(post_kernel.start, flush.at - 1e-12);
}

TEST(ExecContextTest, RemoteAccessSerializesAfterIssuingKernel) {
  test::Rig rig(1u << 20, /*workers=*/1);
  rig.ctx.launch(16, [&](std::size_t) { rig.dev.bus().remote(64); });
  rig.ctx.launch(16, [](std::size_t) {});
  const auto& cmds = rig.ctx.timeline().commands();
  ASSERT_EQ(cmds.size(), 3u);
  ASSERT_EQ(cmds[1].kind, TimelineCommandKind::kRemoteAccess);
  EXPECT_GE(cmds[1].start, cmds[0].end - 1e-12);
  // The remote batch stalls the next kernel (serial with compute).
  EXPECT_GE(cmds[2].start, cmds[1].end - 1e-12);
  EXPECT_EQ(cmds[1].arg1, 16u);  // one transaction per grid thread
}

TEST(ExecContextTest, ScheduleIsDeterministicRunToRun) {
  std::size_t chunks_a = 0, chunks_b = 0;
  const auto a = run_pipeline_pass(2, &chunks_a);
  const auto b = run_pipeline_pass(2, &chunks_b);
  EXPECT_EQ(chunks_a, chunks_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].resource, b[i].resource) << i;
    // Bit-identical simulated times, not approximately equal.
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].end, b[i].end) << i;
    EXPECT_EQ(a[i].arg0, b[i].arg0) << i;
  }
}

TEST(ExecContextTest, BusyTotalsAreTheMeteredCountersPriced) {
  // Pricing is linear in the counters, so per-resource busy sums must equal
  // the run's total counters priced in one go; the schedule only decides
  // how much of that busy time overlaps.
  test::Rig rig(1u << 20, /*workers=*/1);
  std::vector<std::byte> host(16u << 10);
  const DevPtr buf = rig.dev.alloc_static(host.size());
  for (int i = 0; i < 3; ++i) {
    rig.dev.bus().h2d(host.size());
    rig.ctx.copy_stream().h2d(host.size());
    rig.ctx.launch(256, [&](std::size_t) { rig.stats.add_work_units(100); });
  }
  (void)buf;
  const TimelineSummary s = rig.ctx.timeline().summary();
  const StatsSnapshot total = rig.stats.snapshot();
  const PcieSnapshot pcie = rig.dev.bus().snapshot();
  EXPECT_DOUBLE_EQ(s.compute_busy, compute_time(kGpuDesc, total));
  EXPECT_DOUBLE_EQ(s.h2d_busy,
                   rig.dev.bus().params().bulk_time(pcie.h2d_bytes,
                                                    pcie.h2d_txns));
}

}  // namespace
}  // namespace sepo::gpusim
