#include "apps/fuzz.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>

#include "apps/datagen.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "gpusim/device.hpp"

namespace sepo::apps {

const char* to_string(FuzzStatus s) noexcept {
  switch (s) {
    case FuzzStatus::kOk: return "ok";
    case FuzzStatus::kTypedError: return "typed_error";
    case FuzzStatus::kException: return "exception";
  }
  return "?";
}

const char* to_string(FuzzVerdict v) noexcept {
  switch (v) {
    case FuzzVerdict::kAgree: return "agree";
    case FuzzVerdict::kEngineDeclined: return "engine_declined";
    case FuzzVerdict::kDigestMismatch: return "digest_mismatch";
    case FuzzVerdict::kKeyCountMismatch: return "key_count_mismatch";
    case FuzzVerdict::kBaselineFailed: return "baseline_failed";
  }
  return "?";
}

bool is_failure(FuzzVerdict v) noexcept {
  return v == FuzzVerdict::kDigestMismatch ||
         v == FuzzVerdict::kKeyCountMismatch ||
         v == FuzzVerdict::kBaselineFailed;
}

namespace {

// The dataset for a plan. The skewed regimes go straight to apps::datagen
// for the two apps whose generators expose the knobs; everything else uses
// the app's default generator.
std::string generate_input(const AppInfo& app, const FuzzPlan& plan) {
  const DatagenParams p{.target_bytes = plan.input_bytes,
                        .seed = plan.data_seed};
  if (plan.zipf_s > 0 && plan.distinct_keys > 0) {
    if (plan.app == "pvc") return gen_weblog(p, plan.distinct_keys, plan.zipf_s);
    if (plan.app == "wc") return gen_text(p, plan.distinct_keys, plan.zipf_s);
  }
  return app.generate(plan.input_bytes, plan.data_seed);
}

EngineConfig config_for(const FuzzPlan& plan) {
  EngineConfig cfg;
  cfg.gpu.device_bytes = plan.device_bytes;
  cfg.gpu.num_buckets = plan.num_buckets;
  cfg.gpu.pool_workers = plan.workers;
  cfg.gpu.basic_halt_frac = plan.basic_halt_frac;
  cfg.gpu.faults = plan.faults;
  cfg.cpu.pool_workers = plan.workers;
  return cfg;
}

// One side of the differential pair. Every structural failure mode an engine
// can surface — typed RunError on the result, DeviceOutOfMemory / FaultError
// / driver-stall exceptions — is folded into the outcome instead of
// escaping: under SEPO's contract a decline of service is a legal answer,
// only a wrong table is a bug.
FuzzEngineOutcome run_one(const Engine& eng, const AppInfo& app,
                          std::string_view input, const EngineConfig& cfg) {
  FuzzEngineOutcome out;
  try {
    const RunResult r = eng.run(app, input, cfg);
    if (r.error) {
      out.status = FuzzStatus::kTypedError;
      out.error_kind = r.error.kind_name();
      out.message = r.error.message;
    } else {
      out.digest = r.checksum;
      out.keys = r.keys;
    }
    out.iterations = r.iterations;
  } catch (const std::exception& e) {
    out.status = FuzzStatus::kException;
    out.error_kind =
        dynamic_cast<const gpusim::DeviceOutOfMemory*>(&e) != nullptr
            ? "device_out_of_memory"
        : dynamic_cast<const gpusim::FaultError*>(&e) != nullptr
            ? "fault_retries_exhausted"
            : "exception";
    out.message = e.what();
  }
  return out;
}

}  // namespace

FuzzPlan FuzzRunner::plan_for(std::uint64_t index) const {
  // Private per-plan stream: plan i never depends on how many draws plan
  // i-1 made, so plans are individually reproducible from (seed, index).
  Rng rng(hash_combine(opt_.seed, hash_u64(index + 1)));

  FuzzPlan p;
  p.id = index;
  p.master_seed = opt_.seed;
  p.corrupt_digest_xor = opt_.corrupt_digest_xor;

  const auto& apps = all_apps();
  const AppInfo& app = *apps[rng.below(apps.size())];
  p.app = app.key;

  // Engine under test: any registered engine that supports the app and is
  // not itself the reference baseline.
  const Engine* baseline = baseline_engine(app);
  std::vector<const Engine*> candidates;
  for (const Engine* e : all_engines())
    if (e != baseline && e->supports(app)) candidates.push_back(e);
  p.engine = candidates[rng.below(candidates.size())]->name();

  // Dataset: log-uniform size in [8 KiB, max_input_bytes], fresh seed.
  const std::size_t min_bytes = 8u << 10;
  const std::size_t max_bytes = std::max(min_bytes, opt_.max_input_bytes);
  std::uint64_t doublings = 0;
  for (std::size_t b = min_bytes; b * 2 <= max_bytes; b *= 2) ++doublings;
  p.input_bytes = min_bytes << rng.below(doublings + 1);
  p.data_seed = rng.next();

  // Key skew / duplication regime for the generators that expose it. The
  // draws happen unconditionally so the stream layout is identical for
  // every app (a plan's later fields don't shift when only the app differs).
  static constexpr double kSkews[] = {0.5, 0.99, 1.3};
  static constexpr std::size_t kCardinalities[] = {500, 5000, 50000};
  const bool skewed = rng.chance(0.5);
  const double zipf_s = kSkews[rng.below(3)];
  const std::size_t distinct = kCardinalities[rng.below(3)];
  if (skewed && (p.app == "pvc" || p.app == "wc")) {
    p.zipf_s = zipf_s;
    p.distinct_keys = distinct;
  }

  // Device regime: capacity proportional to the input, from "well below the
  // table size" (heavy postponement, typed OOM on the no-postponement
  // baselines) to comfortable. Bucket-array statics are charged on top so a
  // small-fraction draw stresses the heap, not only the static carve-out.
  static constexpr double kCapacityFrac[] = {0.25, 0.5, 0.75, 1.0, 1.5, 4.0};
  static constexpr std::uint32_t kBuckets[] = {1u << 10, 1u << 12, 1u << 14};
  p.num_buckets = kBuckets[rng.below(3)];
  const double frac = kCapacityFrac[rng.below(6)];
  const std::size_t statics =
      static_cast<std::size_t>(p.num_buckets) * 20 + (64u << 10);
  p.device_bytes = std::max<std::size_t>(
      128u << 10,
      statics + static_cast<std::size_t>(frac *
                                         static_cast<double>(p.input_bytes)));

  static constexpr std::size_t kWorkers[] = {1, 2, 4};
  p.workers = kWorkers[rng.below(3)];
  static constexpr double kHaltFracs[] = {0.25, 0.5, 0.9};
  p.basic_halt_frac = kHaltFracs[rng.below(3)];

  // Fault schedule: half of all plans run clean; the rest draw independent
  // per-class rates (any class may be zero) plus a pressure regime.
  if (rng.chance(0.5)) {
    static constexpr double kRates[] = {0.0, 0.005, 0.02};
    gpusim::FaultConfig f;
    f.seed = rng.next();
    f.h2d_rate = kRates[rng.below(3)];
    f.d2h_rate = kRates[rng.below(3)];
    f.remote_rate = kRates[rng.below(3)];
    f.kernel_abort_rate = kRates[rng.below(3)];
    if (rng.chance(0.3)) {
      f.pressure_rate = 0.25;
      f.pressure_frac = 0.5;
      f.pressure_hold_iterations = 2;
    }
    p.faults = f;
  }
  return p;
}

FuzzResult FuzzRunner::execute(const FuzzPlan& plan) const {
  FuzzResult res;
  res.plan = plan;

  const AppInfo* app = find_app(plan.app);
  const Engine* eng = app != nullptr ? find_engine(plan.engine) : nullptr;
  if (app == nullptr || eng == nullptr || !eng->supports(*app)) {
    res.verdict = FuzzVerdict::kBaselineFailed;
    res.baseline.status = FuzzStatus::kException;
    res.baseline.message = "plan names an unknown app/engine pair: " +
                           plan.app + "/" + plan.engine;
    return res;
  }
  const Engine* base = baseline_engine(*app);
  const std::string input = generate_input(*app, plan);

  EngineConfig cfg = config_for(plan);
  // Flight recorder on the engine under test: drained into the result only
  // when the verdict is a failure (the repro artifact carries it).
  std::unique_ptr<gpusim::EventJournal> journal;
  if (eng->telemetry()) {
    journal = std::make_unique<gpusim::EventJournal>();
    cfg.gpu.journal = journal.get();
  }
  res.engine = run_one(*eng, *app, input, cfg);
  if (plan.corrupt_digest_xor != 0 && res.engine.status == FuzzStatus::kOk)
    res.engine.digest ^= plan.corrupt_digest_xor;

  // The baseline runs clean (no journal, no faults — its engines ignore the
  // GPU half anyway, this just keeps the intent explicit).
  EngineConfig base_cfg = config_for(plan);
  base_cfg.gpu.journal = nullptr;
  base_cfg.gpu.faults = {};
  res.baseline = run_one(*base, *app, input, base_cfg);

  if (res.baseline.status != FuzzStatus::kOk) {
    res.verdict = FuzzVerdict::kBaselineFailed;
  } else if (res.engine.status != FuzzStatus::kOk) {
    res.verdict = FuzzVerdict::kEngineDeclined;
  } else if (res.engine.digest != res.baseline.digest) {
    res.verdict = FuzzVerdict::kDigestMismatch;
  } else if (res.engine.keys != res.baseline.keys) {
    res.verdict = FuzzVerdict::kKeyCountMismatch;
  } else {
    res.verdict = FuzzVerdict::kAgree;
  }
  if (res.failed() && journal != nullptr) res.journal = journal->drain();
  return res;
}

FuzzResult FuzzRunner::shrink(const FuzzResult& failing) const {
  if (!failing.failed()) return failing;
  const FuzzVerdict want = failing.verdict;
  FuzzResult best = failing;
  std::size_t execs = 0;

  // Candidate reductions, cheapest-to-check first. Each returns false when
  // it no longer applies to the current plan.
  const auto try_reduced = [&](const std::function<bool(FuzzPlan&)>& reduce) {
    if (execs >= opt_.shrink_budget) return false;
    FuzzPlan cand = best.plan;
    if (!reduce(cand)) return false;
    ++execs;
    FuzzResult r = execute(cand);
    if (r.verdict != want) return false;
    best = std::move(r);
    return true;
  };

  bool progressed = true;
  while (progressed && execs < opt_.shrink_budget) {
    progressed = false;
    // Halve the dataset while the failure persists.
    while (try_reduced([](FuzzPlan& p) {
      if (p.input_bytes <= (8u << 10)) return false;
      p.input_bytes /= 2;
      return true;
    }))
      progressed = true;
    // Zero fault classes one at a time.
    progressed |= try_reduced([](FuzzPlan& p) {
      if (p.faults.h2d_rate == 0) return false;
      p.faults.h2d_rate = 0;
      return true;
    });
    progressed |= try_reduced([](FuzzPlan& p) {
      if (p.faults.d2h_rate == 0) return false;
      p.faults.d2h_rate = 0;
      return true;
    });
    progressed |= try_reduced([](FuzzPlan& p) {
      if (p.faults.remote_rate == 0) return false;
      p.faults.remote_rate = 0;
      return true;
    });
    progressed |= try_reduced([](FuzzPlan& p) {
      if (p.faults.kernel_abort_rate == 0) return false;
      p.faults.kernel_abort_rate = 0;
      return true;
    });
    progressed |= try_reduced([](FuzzPlan& p) {
      if (p.faults.pressure_rate == 0) return false;
      p.faults.pressure_rate = 0;
      return true;
    });
    // One worker, default skew.
    progressed |= try_reduced([](FuzzPlan& p) {
      if (p.workers <= 1) return false;
      p.workers = 1;
      return true;
    });
    progressed |= try_reduced([](FuzzPlan& p) {
      if (p.zipf_s == 0) return false;
      p.zipf_s = 0;
      p.distinct_keys = 0;
      return true;
    });
  }
  return best;
}

FuzzRunner::Summary FuzzRunner::run() const {
  Summary s;
  WallTimer timer;
  for (std::uint64_t i = 0; i < opt_.runs; ++i) {
    if (opt_.time_budget_s > 0 && timer.seconds() >= opt_.time_budget_s) {
      s.hit_time_budget = true;
      break;
    }
    FuzzResult r = execute(plan_for(i));
    ++s.executed;
    if (opt_.observer) opt_.observer(r);
    switch (r.verdict) {
      case FuzzVerdict::kAgree: ++s.agreed; break;
      case FuzzVerdict::kEngineDeclined: ++s.declined; break;
      default:
        s.failures.push_back(opt_.shrink ? shrink(r) : std::move(r));
        break;
    }
  }
  return s;
}

}  // namespace sepo::apps
