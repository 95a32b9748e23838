// One SEPO job: run_sepo_job drives a per-record map function over an input
// into a SEPO hash table through the SepoDriver, handing each record a
// SepoEmitter — an Emitter that inserts with per-record resume tracking.
// The MapReduce runtime (§V), the sepo-gpu and sepo-mr engines, the examples
// and the lookup bench all run their jobs through it.
//
// Re-execution semantics: when a record's k-th emission is postponed, the
// record stays unprocessed and is re-executed in a later iteration; the
// resume counter makes the first k-1 (already accepted) emissions no-ops so
// nothing is double-inserted. Within one execution only the single virtual
// thread running the record touches its counter.
#pragma once

#include <string_view>

#include "bigkernel/pipeline.hpp"
#include "common/progress.hpp"
#include "common/strings.hpp"
#include "core/hash_table.hpp"
#include "core/sepo_driver.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::mapreduce {

class SepoEmitter final : public Emitter {
 public:
  SepoEmitter(core::SepoHashTable& ht, ProgressTracker& progress,
              std::size_t rec) noexcept
      : ht_(ht), progress_(progress), rec_(rec),
        resume_(progress.resume_point(rec)) {}

  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    if (failed_) return core::Status::kPostpone;
    if (idx_ < resume_) {  // accepted in an earlier execution of this record
      ++idx_;
      return core::Status::kSuccess;
    }
    if (ht_.insert(key, value) == core::Status::kSuccess) {
      progress_.advance(rec_, idx_);
      ++idx_;
      return core::Status::kSuccess;
    }
    failed_ = true;
    return core::Status::kPostpone;
  }

  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  core::SepoHashTable& ht_;
  ProgressTracker& progress_;
  std::size_t rec_;
  std::uint32_t resume_;
  std::uint32_t idx_ = 0;
  bool failed_ = false;
};

// Runs `map(body, emitter)` over every record of `index` into `ht` until all
// records are done, re-executing postponed records in later iterations. On
// return the table holds the job's data; ht.finalize() yields the result.
// Throws what SepoDriver::run throws.
template <typename Map>
core::DriverResult run_sepo_job(core::SepoHashTable& ht,
                                bigkernel::InputPipeline& pipe,
                                std::string_view input,
                                const RecordIndex& index, const Map& map,
                                const core::DriverConfig& cfg = {}) {
  ProgressTracker progress(index.size(), /*multi_emit=*/true);
  return core::SepoDriver(cfg).run(
      ht, pipe, input, index, progress,
      [&](std::size_t rec, std::string_view body) {
        SepoEmitter em(ht, progress, rec);
        map(body, em);
        return em.failed() ? core::Status::kPostpone : core::Status::kSuccess;
      });
}

}  // namespace sepo::mapreduce
