// Discrete-event execution timeline for the virtual device (DESIGN.md §5):
// the simulator's one clock for simulated-device runs.
//
// The simulator derives time from event counts, but *when* those events may
// overlap is a scheduling question: BigKernel staging of chunk k+1 overlaps
// the kernel on chunk k only if a free staging buffer exists, and a SEPO
// heap flush halts computation outright (paper §IV-C, Figure 5). The
// Timeline models this explicitly: h2d copies, kernel launches, d2h flushes
// and remote accesses are commands priced with the MachineDesc compute
// arithmetic (compute_time) and the PcieParams transfer arithmetic
// (bulk_time, remote_time), and scheduled onto per-resource simulated clocks
// (compute engine, h2d copy engine, d2h path, remote path). A command starts
// at the latest of: its stream's cursor (stream order), its resource's free
// time (engines are serial), and any awaited events (cross-stream
// dependencies). Overlap is therefore bounded by actual dependencies and
// ring depth, never assumed.
//
// All pricing is linear in the event counts, so each resource's busy total
// is its counters priced in one go (compute_busy == compute_time of the
// kernels' counters, h2d_busy == bulk_time of the staged bytes); the
// makespan is what the schedule adds on top. A run's sim_seconds is the
// makespan plus the hot-lock serialization term (apps::RunResult).
//
// Streams/events mirror the CUDA primitives they stand in for: a Stream is
// an ordered work queue with a moving cursor, an Event is a simulated
// timestamp recorded on a stream that other streams can wait on.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/pcie.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::gpusim {

// A simulated timestamp. Default-constructed events are "already signaled"
// (time zero), so an unset dependency never delays a command.
struct Event {
  double at = 0.0;
};

// Per-resource busy/end totals for metrics export (obs schema v2).
struct TimelineSummary {
  double compute_busy = 0;  // sum of kernel command durations
  double h2d_busy = 0;      // sum of h2d copy durations
  double d2h_busy = 0;      // sum of d2h flush durations
  double remote_busy = 0;   // sum of remote access durations
  double total = 0;         // end of the last command (timeline makespan)
  std::uint64_t commands = 0;
};

// Per-engine fault/retry accounting (obs schema v3). `backoff_s` is the
// simulated time the engine spent on fault overhead — retry backoff waits
// plus aborted launch costs — which the busy totals above exclude so that
// each busy total stays its counters priced, also under fault injection.
struct EngineFaults {
  std::uint64_t faults = 0;   // injected failures observed on this engine
  std::uint64_t retries = 0;  // overhead commands scheduled (backoffs/aborts)
  double backoff_s = 0;       // simulated seconds of that overhead
};

struct FaultSummary {
  std::array<EngineFaults, kNumTimelineResources> engine{};

  [[nodiscard]] std::uint64_t total_faults() const noexcept {
    std::uint64_t n = 0;
    for (const EngineFaults& e : engine) n += e.faults;
    return n;
  }
  [[nodiscard]] double total_backoff_s() const noexcept {
    double s = 0;
    for (const EngineFaults& e : engine) s += e.backoff_s;
    return s;
  }
};

class Timeline {
 public:
  Timeline(const MachineDesc& machine, PcieParams pcie)
      : machine_(machine), pcie_(pcie) {}

  // Schedules one command: start = max(ready, resource free time). Returns
  // the completion event and advances the resource clock.
  Event schedule(TimelineCommandKind kind, TimelineResource resource,
                 double ready, double duration, std::uint64_t arg0,
                 std::uint64_t arg1);

  [[nodiscard]] double resource_end(TimelineResource r) const noexcept {
    return end_[static_cast<int>(r)];
  }
  // End of the last command across all resources (simulated makespan).
  [[nodiscard]] double total_end() const noexcept;
  [[nodiscard]] double busy(TimelineResource r) const noexcept {
    return busy_[static_cast<int>(r)];
  }
  [[nodiscard]] std::uint64_t command_count() const noexcept {
    return n_commands_;
  }
  [[nodiscard]] const std::vector<TimelineCommand>& commands() const noexcept {
    return commands_;
  }
  [[nodiscard]] TimelineSummary summary() const noexcept;

  // Fault accounting. note_fault records an injected failure against an
  // engine; the overhead commands themselves (kRetryBackoff/kAbortedLaunch)
  // are tallied by schedule().
  void note_fault(TimelineResource r) noexcept {
    ++faults_.engine[static_cast<int>(r)].faults;
  }
  [[nodiscard]] const FaultSummary& fault_summary() const noexcept {
    return faults_;
  }

  [[nodiscard]] const MachineDesc& machine() const noexcept { return machine_; }
  [[nodiscard]] const PcieParams& pcie() const noexcept { return pcie_; }

  void set_hook(TraceHook* hook) noexcept { hook_ = hook; }

 private:
  MachineDesc machine_;
  PcieParams pcie_;
  std::array<double, kNumTimelineResources> end_{};
  std::array<double, kNumTimelineResources> busy_{};
  FaultSummary faults_;
  std::vector<TimelineCommand> commands_;
  std::uint64_t n_commands_ = 0;
  TraceHook* hook_ = nullptr;
};

// An ordered command queue on a Timeline (the CUDA-stream analogue):
// commands pushed to the same stream never overlap each other, and wait()
// makes the stream's next command additionally wait for an event recorded
// elsewhere.
class Stream {
 public:
  explicit Stream(Timeline& tl) noexcept : tl_(&tl) {}

  // The stream's next command will not start before `e`.
  void wait(Event e) noexcept { cursor_ = std::max(cursor_, e.at); }

  // An event signaled when all work queued on this stream so far is done.
  [[nodiscard]] Event record() const noexcept { return {cursor_}; }

  Event h2d(std::uint64_t bytes);
  Event d2h_flush(std::uint64_t bytes);
  Event kernel(const StatsSnapshot& delta, std::size_t n_items);
  Event remote(std::uint64_t bytes, std::uint64_t txns);

  // Fault-injection overhead spans (see gpusim::FaultInjector). backoff
  // parks the stream on `r` for `seconds`; aborted_launch charges the
  // machine's launch cost on the compute engine without running anything.
  Event backoff(TimelineResource r, double seconds);
  Event aborted_launch(double seconds);

 private:
  Event push(TimelineCommandKind kind, TimelineResource resource,
             double duration, std::uint64_t arg0, std::uint64_t arg1);

  Timeline* tl_;
  double cursor_ = 0.0;
};

}  // namespace sepo::gpusim
