#include "gpusim/exec_context.hpp"

#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"

namespace sepo::gpusim {

ExecContext::ExecContext(Device& dev, ThreadPool& pool, RunStats& stats)
    : dev_(dev),
      pool_(pool),
      stats_(stats),
      timeline_(kGpuDesc, dev.bus().params()),
      compute_(timeline_),
      copy_(timeline_),
      flush_(timeline_) {}

void ExecContext::set_trace(TraceHook* hook) {
  stats_.set_trace_hook(hook);
  timeline_.set_hook(hook);
  if (hook) hook->on_timeline_attach();
}

void ExecContext::set_journal(EventJournal* journal) {
  journal_ = journal;
  if (journal_ != nullptr) {
    journal_->ensure_shards(pool_.worker_count());
    publish_sim_now();
  }
}

void ExecContext::publish_sim_now() noexcept {
  if (journal_ != nullptr) journal_->set_now(timeline_.total_end());
}

void ExecContext::fault_transfer_attempts(bool is_d2h, std::uint64_t bytes) {
  FaultInjector& f = *faults_;
  Stream& s = is_d2h ? flush_ : copy_;
  const TimelineResource r =
      is_d2h ? TimelineResource::kCopyD2h : TimelineResource::kCopyH2d;
  std::uint32_t attempt = 0;
  while (is_d2h ? f.draw_d2h() : f.draw_h2d()) {
    if (++attempt > f.config().max_retries) {
      if (journal_ != nullptr)
        journal_->record(JournalEventKind::kFaultExhausted,
                         static_cast<std::uint64_t>(r),
                         f.config().max_retries);
      throw FaultError(std::string(is_d2h ? "d2h" : "h2d") +
                       " transfer failed after " +
                       std::to_string(f.config().max_retries) + " retries");
    }
    // The failed attempt still crossed the bus and occupied the copy engine
    // at full price; meter both so the busy total stays the metered bytes
    // priced, under faults too. Then wait out the backoff before the next
    // attempt.
    timeline_.note_fault(r);
    stats_.add_fault_retries();
    if (is_d2h) {
      stats_.add_faults_d2h();
      dev_.bus().d2h(bytes);
      s.d2h_flush(bytes);
    } else {
      stats_.add_faults_h2d();
      dev_.bus().h2d(bytes);
      s.h2d(bytes);
    }
    publish_sim_now();
    if (journal_ != nullptr)
      journal_->record(JournalEventKind::kFaultRetry,
                       static_cast<std::uint64_t>(r), attempt);
    s.backoff(r, f.backoff_s(attempt));
    publish_sim_now();
    if (journal_ != nullptr)
      journal_->record(JournalEventKind::kFaultBackoff,
                       static_cast<std::uint64_t>(r), attempt);
  }
}

void ExecContext::fault_launch_aborts() {
  FaultInjector& f = *faults_;
  std::uint32_t attempt = 0;
  while (f.draw_kernel_abort()) {
    if (++attempt > f.config().max_retries) {
      if (journal_ != nullptr)
        journal_->record(JournalEventKind::kFaultExhausted,
                         static_cast<std::uint64_t>(TimelineResource::kCompute),
                         f.config().max_retries);
      throw FaultError("kernel launch aborted " +
                       std::to_string(f.config().max_retries) +
                       " times; retries exhausted");
    }
    // An aborted chunk launch costs the launch overhead (the kernel never
    // ran, so no counter delta) plus the retry backoff.
    timeline_.note_fault(TimelineResource::kCompute);
    stats_.add_kernel_aborts();
    stats_.add_fault_retries();
    compute_.aborted_launch(timeline_.machine().sec_per_kernel_launch);
    publish_sim_now();
    if (journal_ != nullptr)
      journal_->record(JournalEventKind::kFaultRetry,
                       static_cast<std::uint64_t>(TimelineResource::kCompute),
                       attempt);
    compute_.backoff(TimelineResource::kCompute, f.backoff_s(attempt));
    publish_sim_now();
    if (journal_ != nullptr)
      journal_->record(JournalEventKind::kFaultBackoff,
                       static_cast<std::uint64_t>(TimelineResource::kCompute),
                       attempt);
  }
}

Event ExecContext::stage_h2d(DevPtr dst, const void* src, std::size_t bytes,
                             Event after) {
  dev_.copy_h2d(dst, src, bytes);
  copy_.wait(after);
  if (faults_) fault_transfer_attempts(/*is_d2h=*/false, bytes);
  const Event done = copy_.h2d(bytes);
  publish_sim_now();
  return done;
}

ExecContext::LaunchBaseline ExecContext::begin_launch(Event after,
                                                      std::size_t n_items) {
  compute_.wait(after);
  // Abort faults are decided *before* the chunk physically executes — an
  // aborted launch must have no side effects, and the simulator cannot undo
  // a kernel's real work after the fact.
  if (faults_) fault_launch_aborts();
  publish_sim_now();
  if (journal_ != nullptr)
    journal_->record(JournalEventKind::kKernelLaunch, n_items);
  return {stats_.snapshot(), dev_.bus().snapshot()};
}

Event ExecContext::finish_launch(const LaunchBaseline& base,
                                 std::size_t n_items) {
  const StatsSnapshot delta = stats_.snapshot() - base.stats_before;
  const PcieSnapshot& bus_before = base.bus_before;
  const PcieSnapshot bus_after = dev_.bus().snapshot();

  Event done = compute_.kernel(delta, n_items);
  publish_sim_now();
  if (journal_ != nullptr)
    journal_->record(JournalEventKind::kKernelFinish, n_items,
                     delta.work_units);

  // Remote accesses the kernel issued (pinned baseline) serialize with the
  // issuing warps: schedule them right after the kernel and stall subsequent
  // compute until they drain.
  const std::uint64_t remote_txns =
      bus_after.remote_txns - bus_before.remote_txns;
  if (remote_txns > 0) {
    const std::uint64_t remote_bytes =
        bus_after.remote_bytes - bus_before.remote_bytes;
    done = timeline_.schedule(
        TimelineCommandKind::kRemoteAccess, TimelineResource::kRemote, done.at,
        timeline_.pcie().remote_time(remote_bytes, remote_txns), remote_bytes,
        remote_txns);

    // A slice of those transactions may fail; the failed slice re-issues
    // (same per-transaction price) after a backoff, and can fail again.
    // Retry transactions are priced on the timeline (as kRetryBackoff, so
    // outside the busy totals) but not re-metered on the bus: remote_busy
    // stays the first attempts' metered traffic priced.
    if (faults_) {
      FaultInjector& f = *faults_;
      std::uint64_t failed = f.draw_remote_failures(remote_txns);
      std::uint32_t attempt = 0;
      while (failed > 0) {
        if (++attempt > f.config().max_retries) {
          if (journal_ != nullptr)
            journal_->record(
                JournalEventKind::kFaultExhausted,
                static_cast<std::uint64_t>(TimelineResource::kRemote),
                f.config().max_retries);
          throw FaultError("remote transactions failed after " +
                           std::to_string(f.config().max_retries) +
                           " retries");
        }
        timeline_.note_fault(TimelineResource::kRemote);
        stats_.add_faults_remote(failed);
        stats_.add_fault_retries();
        const std::uint64_t failed_bytes = remote_bytes * failed / remote_txns;
        done = timeline_.schedule(TimelineCommandKind::kRetryBackoff,
                                  TimelineResource::kRemote, done.at,
                                  f.backoff_s(attempt), 0, 0);
        publish_sim_now();
        if (journal_ != nullptr)
          journal_->record(
              JournalEventKind::kFaultBackoff,
              static_cast<std::uint64_t>(TimelineResource::kRemote), attempt);
        done = timeline_.schedule(TimelineCommandKind::kRetryBackoff,
                                  TimelineResource::kRemote, done.at,
                                  timeline_.pcie().remote_time(failed_bytes,
                                                               failed),
                                  failed_bytes, failed);
        publish_sim_now();
        if (journal_ != nullptr)
          journal_->record(
              JournalEventKind::kFaultRetry,
              static_cast<std::uint64_t>(TimelineResource::kRemote), attempt);
        failed = f.draw_remote_failures(failed);
      }
    }
    compute_.wait(done);
  }
  publish_sim_now();
  return done;
}

Event ExecContext::flush_d2h(std::uint64_t bytes) {
  // The flush cannot start before queued compute finishes, and computation
  // (and further staging) halts until it completes (paper §IV-C).
  flush_.wait(compute_.record());
  if (faults_) fault_transfer_attempts(/*is_d2h=*/true, bytes);
  const Event done = flush_.d2h_flush(bytes);
  compute_.wait(done);
  copy_.wait(done);
  publish_sim_now();
  if (journal_ != nullptr)
    journal_->record(JournalEventKind::kFlushBarrier, 0, bytes);
  return done;
}

}  // namespace sepo::gpusim
