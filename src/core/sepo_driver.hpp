// The SEPO iteration driver (paper §III-B, §IV-C, Figure 5).
//
// "The application iterates over the entire set of input records multiple
// times in sequence until all input records have been successfully
// processed." The driver owns that loop: it runs passes over the pending
// records through the BigKernel pipeline, applies the organization-specific
// halt condition, and triggers the organization-specific heap flush between
// iterations.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "bigkernel/pipeline.hpp"
#include "common/progress.hpp"
#include "common/strings.hpp"
#include "core/hash_table.hpp"
#include "core/iteration_profile.hpp"
#include "gpusim/journal.hpp"

namespace sepo::core {

struct DriverConfig {
  // Basic organization: halt the pass when this fraction of bucket groups is
  // postponing ("We observed acceptable performance with setting the
  // threshold to 50%", §IV-C footnote 5).
  double basic_halt_frac = 0.5;
  // Safety valve against configurations that cannot make progress.
  std::uint32_t max_iterations = 10000;
};

// Embeds the same StagingTotals a single pass reports, accumulated over all
// iterations — no field-by-field copying to drift.
struct DriverResult : bigkernel::StagingTotals {
  std::uint32_t iterations = 0;
  // One convergence snapshot per iteration (telemetry; always collected —
  // the cost is one counter snapshot and one bucket sweep per iteration).
  IterationProfiles profiles;
  // One occupancy snapshot per iteration boundary (the flight recorder's
  // sampler, DESIGN.md §5b). Also always collected: it only reads allocator
  // and timeline state, so it cannot perturb results.
  std::vector<gpusim::OccupancySample> timeseries;
};

class SepoDriver {
 public:
  explicit SepoDriver(DriverConfig cfg = {}) : cfg_(cfg) {}

  // Runs `task` over every record of `input` until all records have been
  // processed, iterating per the table's organization. On return the table
  // still holds its data (flushed to the host heap); call ht.finalize() to
  // obtain the HostTable.
  //
  // Throws std::runtime_error if an iteration completes with zero progress
  // (e.g. a single entry larger than the whole heap).
  DriverResult run(SepoHashTable& ht, bigkernel::InputPipeline& pipe,
                   std::string_view input, const RecordIndex& index,
                   ProgressTracker& progress, const bigkernel::TaskFn& task);

  [[nodiscard]] const DriverConfig& config() const noexcept { return cfg_; }

 private:
  static IterationProfile profile_iteration(SepoHashTable& ht,
                                            std::uint32_t iteration,
                                            const gpusim::StatsSnapshot& before,
                                            const bigkernel::PassResult& pass);
  // Samples the boundary after the flush; `pages_used_peak` is read by the
  // caller just before it.
  static gpusim::OccupancySample sample_occupancy(
      SepoHashTable& ht, bigkernel::InputPipeline& pipe,
      std::uint32_t iteration, std::uint32_t pages_used_peak);

  DriverConfig cfg_;
};

}  // namespace sepo::core
