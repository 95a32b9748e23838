// Differential fuzzing of the engine matrix (ISSUE 9, DESIGN.md §2).
//
// The paper's core correctness claim is that SEPO postpones work but never
// produces wrong answers: every engine must converge to exactly the table
// contents the in-memory baseline computes. The registry's fixed-fixture
// cross-validation (tests/engine_test.cpp) checks that on a handful of
// inputs; hash-table bugs, however, hide in boundary regimes — device
// capacity at or below the table size, word-boundary bitmap sizes, heavy key
// skew, fault storms — that fixed fixtures never reach.
//
// FuzzRunner hunts those regimes: a seeded generator samples random run
// configs (app, engine, dataset size/skew, device capacity near and below
// the table size, worker count, fault schedule), executes each config on the
// engine under test AND on the app's reference baseline, and compares the
// order-independent digests, entry counts, and typed-error outcomes. A
// mismatch is auto-shrunk (halve the dataset, zero fault classes one at a
// time, drop to one worker, remove skew) to a minimal FuzzPlan that
// `sepo_cli fuzz --repro <file>` replays bit-identically.
//
// Determinism contract: a plan is a pure function of (master seed, index) —
// the generator owns a private sepo::Rng per plan, draws in a fixed order,
// and never touches the wall clock — and every engine in the registry is
// deterministic in its config, so the same seed yields the same plans AND
// the same verdicts on every run and platform. The wall clock appears only
// in the optional --time-budget cutoff, which bounds how MANY plans run,
// never what any plan does.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/engine.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"

namespace sepo::apps {

// One fully-specified differential run. Every field that can influence the
// result is here, so a serialized plan (obs/fuzz_repro.hpp) replays
// bit-identically.
struct FuzzPlan {
  std::uint64_t id = 0;           // index in the generated sequence
  std::uint64_t master_seed = 0;  // seed the generator derived this plan from
  std::string app;                // AppInfo key ("pvc", "wc", ...)
  std::string engine;             // registry name of the engine under test
  std::size_t input_bytes = 64u << 10;
  std::uint64_t data_seed = 42;   // dataset generator seed
  // Custom key-skew regime for the apps whose generators expose it (pvc via
  // gen_weblog, wc via gen_text). zipf_s == 0 means the app's default
  // generator parameters; distinct_keys is ignored then.
  double zipf_s = 0.0;
  std::size_t distinct_keys = 0;
  // Device regime: sampled near and below the expected table footprint so
  // capacity-edge behaviour (postponement, typed OOM) gets exercised.
  std::size_t device_bytes = 4u << 20;
  std::uint32_t num_buckets = 1u << 14;
  std::size_t workers = 1;        // host thread-pool size
  double basic_halt_frac = 0.5;   // basic-organization halt threshold
  gpusim::FaultConfig faults;     // all-zero = no injection
  // Test-only corruption hook: a nonzero value is XORed into the engine
  // under test's digest before comparison, forcing a deterministic mismatch
  // so the shrink/repro pipeline itself can be exercised end to end.
  std::uint64_t corrupt_digest_xor = 0;
};

// How one side of a differential run ended.
enum class FuzzStatus {
  kOk = 0,         // run completed, digest and counts valid
  kTypedError,     // run returned a typed RunError (declined service)
  kException,      // run threw; structural failure surfaced untyped
};
[[nodiscard]] const char* to_string(FuzzStatus s) noexcept;

struct FuzzEngineOutcome {
  FuzzStatus status = FuzzStatus::kOk;
  std::string error_kind;     // RunError kind_name / exception type label
  std::string message;        // error detail (empty on kOk)
  std::uint64_t digest = 0;   // order-independent checksum (kOk only)
  std::uint64_t keys = 0;     // distinct entries (kOk only)
  std::uint32_t iterations = 0;
};

// The comparison verdict. SEPO's contract is "postpone or answer correctly":
// a typed decline is acceptable, a wrong answer never is.
enum class FuzzVerdict {
  kAgree = 0,          // both ok, digests and entry counts match
  kEngineDeclined,     // engine under test reported a typed error / threw
  kDigestMismatch,     // both ok, digests differ  -> bug
  kKeyCountMismatch,   // digests match but entry counts differ -> bug
  kBaselineFailed,     // the reference baseline itself failed -> bug
};
[[nodiscard]] const char* to_string(FuzzVerdict v) noexcept;
[[nodiscard]] bool is_failure(FuzzVerdict v) noexcept;

struct FuzzResult {
  FuzzPlan plan;
  FuzzEngineOutcome engine;
  FuzzEngineOutcome baseline;
  FuzzVerdict verdict = FuzzVerdict::kAgree;
  // Flight-recorder events drained from the engine under test, captured only
  // when the verdict is a failure and the engine supports the journal.
  std::vector<gpusim::JournalEvent> journal;

  [[nodiscard]] bool failed() const noexcept { return is_failure(verdict); }
};

struct FuzzOptions {
  std::uint64_t seed = 0x5ef0f022ULL;  // master seed
  std::uint64_t runs = 32;             // plans to generate and execute
  double time_budget_s = 0;            // 0 = no wall-clock cutoff
  std::size_t max_input_bytes = 256u << 10;
  bool shrink = true;                  // auto-shrink failing plans
  std::size_t shrink_budget = 48;      // max extra executions per failure
  // Test-only: applied to every generated plan (see FuzzPlan).
  std::uint64_t corrupt_digest_xor = 0;
  // Per-result observer for progress output; may be null. Called after each
  // top-level plan (not for shrink re-executions).
  std::function<void(const FuzzResult&)> observer;
};

class FuzzRunner {
 public:
  explicit FuzzRunner(FuzzOptions opt) : opt_(std::move(opt)) {}

  [[nodiscard]] const FuzzOptions& options() const noexcept { return opt_; }

  // The deterministic generator: plan i under seed S is the same on every
  // run and platform.
  [[nodiscard]] FuzzPlan plan_for(std::uint64_t index) const;

  // Executes one plan differentially (engine under test vs the app's
  // baseline) and renders the verdict. Deterministic in the plan.
  [[nodiscard]] FuzzResult execute(const FuzzPlan& plan) const;

  // Greedy shrink: repeatedly applies reductions (halve dataset, zero fault
  // classes, one worker, default skew) keeping only those that preserve the
  // failure's verdict. Returns the execution of the minimal failing plan.
  [[nodiscard]] FuzzResult shrink(const FuzzResult& failing) const;

  struct Summary {
    std::uint64_t executed = 0;
    std::uint64_t agreed = 0;
    std::uint64_t declined = 0;   // typed declines (acceptable)
    std::vector<FuzzResult> failures;  // shrunk when options().shrink
    bool hit_time_budget = false;
  };

  // The main loop: plans [0, runs) under the seed, stopping early only at
  // the optional time budget. Failures are shrunk before being recorded.
  [[nodiscard]] Summary run() const;

 private:
  FuzzOptions opt_;
};

}  // namespace sepo::apps
