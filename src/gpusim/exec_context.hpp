// Unified execution context for the virtual device.
//
// ExecContext bundles the parameter triple every layer above gpusim needs
// (Device&, ThreadPool&, RunStats&) with the discrete-event Timeline that
// times the run on the modelled GPU (kGpuDesc) and the three streams the
// SEPO execution model needs:
//
//   * copy stream     h2d input staging (BigKernel ring). Overlaps compute;
//                     bounded by buffer-reuse dependencies.
//   * compute stream  kernel launches; remote accesses serialize after the
//                     kernel that issued them (pinned baseline).
//   * flush stream    d2h heap flushes. A flush is a barrier: it waits for
//                     all queued compute and halts both compute and staging
//                     until it completes (paper §IV-C).
//
// The context wraps the physical operations (the memcpy + bus metering stay
// exactly as before, so counters and checksums are untouched) and schedules
// the priced command onto the timeline. sim_elapsed() is the resulting
// makespan, the run's one simulated clock.
#pragma once

#include <cstddef>
#include <utility>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/thread_pool.hpp"

namespace sepo::gpusim {

class EventJournal;
class FaultInjector;

class ExecContext {
 public:
  // Non-owning: bundles an existing device/pool/stats. The timeline prices
  // with kGpuDesc and the device bus's PCIe parameters.
  ExecContext(Device& dev, ThreadPool& pool, RunStats& stats);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  [[nodiscard]] Device& device() noexcept { return dev_; }
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] RunStats& stats() noexcept { return stats_; }
  [[nodiscard]] PcieBus& bus() noexcept { return dev_.bus(); }
  [[nodiscard]] Timeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const Timeline& timeline() const noexcept { return timeline_; }
  [[nodiscard]] Stream& compute_stream() noexcept { return compute_; }
  [[nodiscard]] Stream& copy_stream() noexcept { return copy_; }
  [[nodiscard]] Stream& flush_stream() noexcept { return flush_; }

  // Installs a telemetry hook on the run's counters and the timeline and
  // announces the attach (recorders offset subsequent commands by their
  // current end so several runs concatenate onto one trace). The bus keeps
  // no hook: resource spans now come from exact timeline commands.
  void set_trace(TraceHook* hook);

  // Installs a fault injector (non-owning; null disables injection). With an
  // injector installed, stage_h2d / launch / flush_d2h interpose transient
  // faults: each failed attempt is scheduled at full cost on its engine,
  // followed by a priced kRetryBackoff span, and a FaultError is thrown once
  // max_retries consecutive attempts fail. All draws happen on the (serial)
  // host scheduling path, so the fault schedule is deterministic.
  void set_faults(FaultInjector* faults) noexcept { faults_ = faults; }
  [[nodiscard]] FaultInjector* faults() const noexcept { return faults_; }

  // Installs a flight-recorder journal (non-owning; null disables). Sizes
  // the journal's shards for this pool and republishes the simulated clock
  // into it after every scheduling step so events recorded from inside
  // kernels carry the right timestamp. With no journal installed every hook
  // site is a single branch — journal-on and journal-off runs are
  // bit-identical (tests/journal_test.cpp).
  void set_journal(EventJournal* journal);
  [[nodiscard]] EventJournal* journal() const noexcept { return journal_; }

  // Stages `bytes` host->device (metered memcpy, as Device::copy_h2d) and
  // schedules the copy on the h2d engine, not before `after` (typically the
  // event of the kernel that last read the target staging buffer). Returns
  // the copy's completion event.
  Event stage_h2d(DevPtr dst, const void* src, std::size_t bytes,
                  Event after = {});

  // Runs `kernel` over [0, n_items) on the virtual grid (as gpusim::launch)
  // and schedules the priced kernel on the compute engine, not before
  // `after` (typically its input chunk's staging event). Remote traffic the
  // kernel generated (pinned baseline) is scheduled directly after it and
  // halts later compute: remote accesses serialize with the issuing warps.
  // The kernel type flows through to the pool's batch loop so per-item
  // dispatch inlines; the scheduling bookkeeping on both sides of the
  // physical execution lives in begin_launch/finish_launch.
  template <typename Kernel>
  Event launch(std::size_t n_items, Kernel&& kernel, LaunchConfig cfg = {},
               Event after = {}) {
    const LaunchBaseline base = begin_launch(after, n_items);
    gpusim::launch(pool_, stats_, n_items, std::forward<Kernel>(kernel), cfg);
    return finish_launch(base, n_items);
  }

  // Schedules a d2h flush transfer of `bytes` (the caller already performed
  // the page copy and bus metering). Flushes halt computation (§IV-C): the
  // transfer waits for all queued compute, and both the compute and copy
  // streams resume only after it completes.
  Event flush_d2h(std::uint64_t bytes);

  // Simulated makespan so far: end of the last scheduled command.
  [[nodiscard]] double sim_elapsed() const noexcept {
    return timeline_.total_end();
  }

  // Counter/bus state captured just before a kernel physically executes;
  // finish_launch turns it into the kernel's delta for pricing.
  struct LaunchBaseline {
    StatsSnapshot stats_before;
    PcieSnapshot bus_before;
  };

  // The serial host-side scheduling work bracketing every kernel launch:
  // begin_launch orders the kernel after `after`, interposes abort faults,
  // and snapshots the baseline; finish_launch prices the counter delta,
  // schedules the compute command, and drains any remote traffic the kernel
  // generated (with its fault retries). launch() calls both; a device loop
  // that must run on the calling thread (Stadium's map, which may throw
  // mid-loop) brackets itself with them directly.
  LaunchBaseline begin_launch(Event after, std::size_t n_items);
  Event finish_launch(const LaunchBaseline& base, std::size_t n_items);

 private:
  // Publishes the timeline clock into the journal (no-op without one).
  void publish_sim_now() noexcept;

  // Prices the failed attempts (and their backoffs) a transfer suffers
  // before its successful attempt; throws FaultError on retry exhaustion.
  void fault_transfer_attempts(bool is_d2h, std::uint64_t bytes);
  void fault_launch_aborts();

  Device& dev_;
  ThreadPool& pool_;
  RunStats& stats_;
  Timeline timeline_;
  Stream compute_;
  Stream copy_;
  Stream flush_;
  FaultInjector* faults_ = nullptr;
  EventJournal* journal_ = nullptr;
};

}  // namespace sepo::gpusim
