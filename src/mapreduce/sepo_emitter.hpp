// Emitter that inserts into a SEPO hash table with per-record resume
// tracking. Used by the MapReduce runtime (§V) and by the standalone
// applications whose records emit several KV pairs (Inverted Index, DNA
// Assembly, Netflix).
//
// Re-execution semantics: when a record's k-th emission is postponed, the
// record stays unprocessed and is re-executed in a later iteration; the
// resume counter makes the first k-1 (already accepted) emissions no-ops so
// nothing is double-inserted. Within one execution only the single virtual
// thread running the record touches its counter.
#pragma once

#include "common/progress.hpp"
#include "core/hash_table.hpp"
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

}  // namespace sepo::mapreduce
