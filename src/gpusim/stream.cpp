#include "gpusim/stream.hpp"

#include <algorithm>

namespace sepo::gpusim {

Event Timeline::schedule(TimelineCommandKind kind, TimelineResource resource,
                         double ready, double duration, std::uint64_t arg0,
                         std::uint64_t arg1) {
  const int r = static_cast<int>(resource);
  const double start = std::max(ready, end_[r]);
  const double end = start + duration;
  end_[r] = end;
  if (kind == TimelineCommandKind::kRetryBackoff ||
      kind == TimelineCommandKind::kAbortedLaunch) {
    // Fault overhead occupies the engine but is accounted separately so the
    // busy totals stay the run's counters priced, exactly.
    ++faults_.engine[r].retries;
    faults_.engine[r].backoff_s += duration;
  } else {
    busy_[r] += duration;
  }
  ++n_commands_;
  const TimelineCommand cmd{kind, resource, start, end, arg0, arg1};
  commands_.push_back(cmd);
  if (hook_) hook_->on_timeline_command(cmd);
  return {end};
}

double Timeline::total_end() const noexcept {
  return std::max(std::max(end_[0], end_[1]), std::max(end_[2], end_[3]));
}

TimelineSummary Timeline::summary() const noexcept {
  TimelineSummary s;
  s.compute_busy = busy_[static_cast<int>(TimelineResource::kCompute)];
  s.h2d_busy = busy_[static_cast<int>(TimelineResource::kCopyH2d)];
  s.d2h_busy = busy_[static_cast<int>(TimelineResource::kCopyD2h)];
  s.remote_busy = busy_[static_cast<int>(TimelineResource::kRemote)];
  s.total = total_end();
  s.commands = n_commands_;
  return s;
}

Event Stream::push(TimelineCommandKind kind, TimelineResource resource,
                   double duration, std::uint64_t arg0, std::uint64_t arg1) {
  const Event done =
      tl_->schedule(kind, resource, cursor_, duration, arg0, arg1);
  cursor_ = done.at;
  return done;
}

Event Stream::h2d(std::uint64_t bytes) {
  return push(TimelineCommandKind::kH2dCopy, TimelineResource::kCopyH2d,
              tl_->pcie().bulk_time(bytes, 1), bytes, 0);
}

Event Stream::d2h_flush(std::uint64_t bytes) {
  return push(TimelineCommandKind::kD2hFlush, TimelineResource::kCopyD2h,
              tl_->pcie().bulk_time(bytes, 1), bytes, 0);
}

Event Stream::kernel(const StatsSnapshot& delta, std::size_t n_items) {
  return push(TimelineCommandKind::kKernel, TimelineResource::kCompute,
              compute_time(tl_->machine(), delta),
              static_cast<std::uint64_t>(n_items), delta.work_units);
}

Event Stream::remote(std::uint64_t bytes, std::uint64_t txns) {
  return push(TimelineCommandKind::kRemoteAccess, TimelineResource::kRemote,
              tl_->pcie().remote_time(bytes, txns), bytes, txns);
}

Event Stream::backoff(TimelineResource r, double seconds) {
  return push(TimelineCommandKind::kRetryBackoff, r, seconds, 0, 0);
}

Event Stream::aborted_launch(double seconds) {
  return push(TimelineCommandKind::kAbortedLaunch, TimelineResource::kCompute,
              seconds, 0, 0);
}

}  // namespace sepo::gpusim
