#include "core/sepo_driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "gpusim/fault.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::core {

DriverResult SepoDriver::run(SepoHashTable& ht,
                             bigkernel::InputPipeline& pipe,
                             std::string_view input, const RecordIndex& index,
                             ProgressTracker& progress,
                             const bigkernel::TaskFn& task) {
  DriverResult result;
  const bool use_halt = ht.config().org == Organization::kBasic;
  std::function<bool()> halted;
  if (use_halt)
    halted = [&ht, frac = cfg_.basic_halt_frac] { return ht.should_halt(frac); };

  gpusim::TraceHook* const hook = ht.run_stats().trace_hook();
  gpusim::EventJournal* const journal = pipe.ctx().journal();

  // An injected memory-pressure spike may seize the whole heap for a few
  // iterations; that is degradation (POSTPONE everything), not a dead
  // config, so tolerate as many consecutive zero-progress iterations as a
  // spike can possibly hold, plus one iteration of slack.
  const gpusim::FaultInjector* const faults = pipe.ctx().faults();
  const std::uint32_t zero_progress_limit =
      faults != nullptr && faults->config().pressure_rate > 0
          ? std::max(2u, faults->config().pressure_hold_iterations + 1)
          : 1;
  std::uint32_t zero_progress = 0;

  while (!progress.all_done()) {
    if (result.iterations >= cfg_.max_iterations)
      throw std::runtime_error("SEPO driver exceeded max_iterations");
    ++result.iterations;
    if (hook) hook->on_iteration_begin(result.iterations);
    if (journal)
      journal->record(gpusim::JournalEventKind::kIterationBegin,
                      result.iterations);

    const std::size_t done_before = progress.done_count();
    const gpusim::StatsSnapshot stats_before = ht.run_stats().snapshot();
    ht.begin_iteration();
    const bigkernel::PassResult pass =
        pipe.run_pass(input, index, progress, task, halted);
    const std::uint32_t pages_used_peak = ht.page_pool().page_count() -
                                          ht.free_pages() -
                                          ht.pressure_page_count();
    ht.end_iteration();

    static_cast<bigkernel::StagingTotals&>(result) += pass;
    result.profiles.push_back(
        profile_iteration(ht, result.iterations, stats_before, pass));
    result.timeseries.push_back(
        sample_occupancy(ht, pipe, result.iterations, pages_used_peak));
    if (hook) {
      hook->on_occupancy_sample(result.timeseries.back());
      hook->on_iteration_end(result.iterations);
    }
    if (journal)
      journal->record(gpusim::JournalEventKind::kIterationEnd,
                      result.iterations,
                      result.profiles.back().records_postponed);

    if (progress.done_count() == done_before) {
      if (++zero_progress >= zero_progress_limit)
        throw std::runtime_error(
            "SEPO iteration made no progress: an entry may exceed the heap "
            "size, or the heap has zero pages");
    } else {
      zero_progress = 0;
    }
  }
  return result;
}

IterationProfile SepoDriver::profile_iteration(
    SepoHashTable& ht, std::uint32_t iteration,
    const gpusim::StatsSnapshot& before, const bigkernel::PassResult& pass) {
  const gpusim::StatsSnapshot after = ht.run_stats().snapshot();
  const gpusim::StatsSnapshot delta = after - before;

  IterationProfile p;
  p.iteration = iteration;
  p.records_processed = delta.records_processed;
  p.records_postponed = delta.records_postponed;
  const std::uint64_t attempts = delta.records_processed + delta.records_postponed;
  p.postpone_rate = attempts == 0 ? 0.0
                                  : static_cast<double>(delta.records_postponed) /
                                        static_cast<double>(attempts);
  p.page_acquires = delta.page_acquires;
  p.kernel_launches = delta.kernel_launches;
  p.hash_ops = delta.hash_ops;
  p.chunks_staged = pass.chunks_staged;
  p.chunks_skipped = pass.chunks_skipped;
  p.bytes_staged = pass.bytes_staged;
  p.halted = pass.halted;

  p.free_pages_after = ht.free_pages();
  const HashTableStats ts = ht.table_stats();
  p.resident_entry_bytes = ts.resident_entry_bytes;
  p.flushed_bytes_total = ts.flushed_bytes;
  p.distinct_entries_total = after.inserts_new;
  p.hottest_bucket_ops = ht.bucket_load().max_bucket_accesses;
  return p;
}

gpusim::OccupancySample SepoDriver::sample_occupancy(
    SepoHashTable& ht, bigkernel::InputPipeline& pipe, std::uint32_t iteration,
    std::uint32_t pages_used_peak) {
  const gpusim::Timeline& tl = pipe.ctx().timeline();
  gpusim::OccupancySample s;
  s.sim_ts = tl.total_end();
  s.iteration = iteration;
  s.pages_total = ht.page_pool().page_count();
  s.pages_free = ht.free_pages();
  s.pages_seized = ht.pressure_page_count();
  s.pages_used_peak = pages_used_peak;
  s.resident_entry_bytes = ht.table_stats().resident_entry_bytes;
  s.staging_slots = pipe.staging_slot_count();
  s.staging_busy = pipe.staging_busy(s.sim_ts);
  for (int r = 0; r < gpusim::kNumTimelineResources; ++r) {
    s.engine_end[r] = tl.resource_end(static_cast<gpusim::TimelineResource>(r));
    s.engine_busy[r] = tl.busy(static_cast<gpusim::TimelineResource>(r));
  }
  return s;
}

}  // namespace sepo::core
