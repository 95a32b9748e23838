// sepo_cli — command-line driver for the reproduction.
//
// Runs any of the seven applications on any implementation with generated
// data, and prints the measured run (stats, simulated time, digest).
//
//   sepo_cli list
//   sepo_cli run --app pvc --impl gpu --dataset 4
//   sepo_cli run --app wc --impl phoenix --bytes 2097152 --seed 7
//   sepo_cli run --app netflix --impl gpu --device-kb 2048 --csv
//   sepo_cli compare --app dna --dataset 2        # gpu vs cpu, digests
//   sepo_cli run --app wc --impl gpu --metrics-out=m.json --trace-out=t.json
//   sepo_cli metrics-check BENCH_fig6.json        # schema validation
//   sepo_cli metrics-diff old.json new.json --max-regress-pct 5
//   sepo_cli run --app pvc --impl gpu --fault-seed 7 --fault-h2d-rate 0.01
//   sepo_cli run --app pvc --impl gpu --fault-h2d-rate 0.5
//       --journal-out crash.jsonl                 # flight-recorder dump
//   sepo_cli report m.json --journal crash.jsonl  # post-mortem run report
//   sepo_cli fuzz --seed 7 --runs 64              # differential fuzzing
//   sepo_cli fuzz --repro fuzz_repro_12.json      # replay a failure
//
// Exit status: 0 on success, 1 on usage error, 2 on run failure (e.g. MapCG
// out of device memory, fault-retry exhaustion), duplicate/unknown
// --fault-* flags, fuzz failures found, or invalid/unreadable/incomparable
// metrics files (metrics-diff exits 2 when the two files' schema versions
// differ outside v3..v9, which stay comparable on shared fields with a
// warning, or when a baseline run has no counterpart in the newer file);
// metrics-diff additionally exits 3 when
// sim_seconds regressed beyond the threshold; `fuzz --repro` exits 4 when
// the replayed verdict differs from the recorded one.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "apps/fuzz.hpp"
#include "common/parse.hpp"
#include "common/table_printer.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"
#include "obs/fuzz_repro.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace sepo;
using namespace sepo::apps;

namespace {

struct Options {
  std::string command;
  std::string app;
  std::string impl = "gpu";
  int dataset = 2;
  std::size_t bytes = 0;  // overrides dataset when nonzero
  std::uint64_t seed = 42;
  std::size_t device_kb = 4096;
  std::uint32_t threads = 8;
  // Host ThreadPool size (0 = hardware concurrency); stripped from argv by
  // apps::pool_workers_from_args before parse() runs.
  std::size_t workers = 0;
  bool csv = false;
  gpusim::FaultConfig faults;  // all rates zero: injection disabled
  // True when --seed was given explicitly. `fuzz` has its own default master
  // seed, so it must distinguish "no --seed" from "--seed 0" — zero is a
  // perfectly good seed, not a request for the default.
  bool seed_set = false;
  // fuzz-only options.
  std::uint64_t fuzz_runs = 32;
  double time_budget_s = 0;
  std::size_t max_bytes = 0;       // 0 = FuzzOptions default
  std::string repro_path;          // replay mode when nonempty
  std::string artifact_dir = ".";  // where failure repros are written
  std::uint64_t corrupt_digest = 0;  // test-only forced-mismatch hook
};

// Checked numeric flag parsing: the whole value must parse and fit, or the
// flag is rejected with a message (std::atoi would silently yield 0).
template <typename T>
bool parse_flag(const std::string& flag, const char* value, T& out) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s requires a value\n", flag.c_str());
    return false;
  }
  const auto parsed = parse_number<T>(value);
  if (!parsed) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), value);
    return false;
  }
  out = *parsed;
  return true;
}

// " | "-joined registry keys/names for usage() and cmd_list(). The lists are
// derived from the registry so they cannot drift from what actually runs.
std::string join_app_keys() {
  std::string s;
  for (const AppInfo* a : all_apps()) {
    if (!s.empty()) s += " | ";
    s += a->key;
  }
  return s;
}

std::string join_engine_names(bool mapreduce) {
  std::string s = "gpu";  // alias: the SEPO engine for the app's kind
  for (const Engine* e : all_engines()) {
    if (!(mapreduce ? e->caps().mapreduce : e->caps().standalone)) continue;
    s += " | ";
    s += e->name();
  }
  return s;
}

void usage() {
  std::fprintf(stderr,
               "usage: sepo_cli <command> [options]\n"
               "commands:\n"
               "  list                       list applications and implementations\n"
               "  engines                    print the app x engine support matrix\n"
               "  run --app A --impl I       run one application\n"
               "  compare --app A [--impl I] run I (default gpu) vs the reference\n"
               "                             baseline, verify digests\n"
               "  metrics-check FILE         validate a metrics JSON file\n"
               "  metrics-diff OLD NEW       compare two metrics files run by run\n"
               "                             (app/impl/dataset, input or heap\n"
               "                             size); exits 2 when a run\n"
               "                             is missing, 3 when sim_seconds\n"
               "                             regressed > --max-regress-pct\n"
               "  report FILE                render a run report from a metrics file\n"
               "                             (schema v3..v9): per-iteration table,\n"
               "                             occupancy high-water marks, fault summary\n"
               "                             [--journal J.jsonl] [--last N]\n"
               "  bench-check FILE           validate a BENCH_host.json wall-clock file\n"
               "  bench-diff OLD NEW         compare two BENCH_host.json files; exits 3\n"
               "                             when wall_seconds regressed beyond\n"
               "                             --max-regress-pct (default 25)\n"
               "  fuzz [--seed S]            differential fuzzing of the engine matrix:\n"
               "                             seeded random configs, each run on the\n"
               "                             engine under test AND the reference\n"
               "                             baseline; failures are shrunk and written\n"
               "                             as replayable repro JSON artifacts\n"
               "                             [--runs N] [--time-budget SECS]\n"
               "                             [--max-bytes N] [--artifact-dir D]\n"
               "                             [--repro FILE]  replay one artifact;\n"
               "                             exits 4 if the verdict changed\n"
               "options:\n");
  std::fprintf(stderr,
               "  --app A          %s\n"
               "  --impl I         %s (standalone apps)\n"
               "                   %s (MapReduce apps)\n",
               join_app_keys().c_str(), join_engine_names(false).c_str(),
               join_engine_names(true).c_str());
  std::fprintf(stderr,
               "  --dataset 1..4   paper Table I size, scaled 1:1000 (default 2)\n"
               "  --bytes N        explicit input size, overrides --dataset\n"
               "  --seed S         generator seed (default 42)\n"
               "  --device-kb N    simulated device memory (default 4096)\n"
               "  --threads N      CPU baseline threads (default 8)\n"
               "  --workers N      host thread-pool size ($SEPO_WORKERS; 0 = cores)\n"
               "  --csv            machine-readable output\n"
               "  --max-regress-pct X   metrics-diff threshold (default 5)\n"
               "fault injection (run/compare; simulated-device impls only):\n"
               "  --fault-seed S           injector RNG seed (deterministic)\n"
               "  --fault-h2d-rate P       fail each h2d copy with prob P\n"
               "  --fault-d2h-rate P       fail each d2h page copy with prob P\n"
               "  --fault-remote-rate P    fail remote txns with prob P (pinned)\n"
               "  --fault-kernel-rate P    abort kernel chunk launches with prob P\n"
               "  --fault-pressure P       per-iteration memory-pressure spike prob\n"
               "  --fault-pressure-frac F  heap fraction seized by a spike\n"
               "  --fault-pressure-hold N  iterations a spike persists\n"
               "  --fault-max-retries N    retries before the run fails (default 8)\n"
               "telemetry (run/compare; also via environment):\n"
               "  --metrics-out FILE    write metrics JSON ($SEPO_METRICS_OUT)\n"
               "  --trace-out FILE      write Chrome trace JSON, GPU impls only\n"
               "                        ($SEPO_TRACE_OUT)\n"
               "  --journal-out FILE    write the flight-recorder event journal as\n"
               "                        JSONL after the run — including failed runs\n"
               "                        (post-mortem); GPU impls only\n"
               "                        ($SEPO_JOURNAL_OUT)\n");
}

// Table-organization / MapReduce-mode label for cmd_list.
const char* org_name(const AppInfo& a) {
  if (a.is_mapreduce()) return mapreduce::to_string(a.mr->mode);
  switch (a.standalone->organization()) {
    case core::Organization::kBasic: return "basic";
    case core::Organization::kMultiValued: return "multi-valued";
    case core::Organization::kCombining: return "combining";
  }
  return "?";
}

// Parses run/compare/fuzz options. On failure returns nullopt with
// `err_exit` set: 1 for usage errors (usage() is printed by the caller), 2
// for rejected --fault-* flags — a duplicated or unknown fault flag means
// the requested fault schedule is not what would run, which is a run-level
// error, not a typo-level one (last-one-wins silently corrupted chaos
// experiments).
std::optional<Options> parse(int argc, char** argv, int& err_exit) {
  err_exit = 1;
  if (argc < 2) return std::nullopt;
  Options o;
  o.command = argv[1];
  std::set<std::string> fault_flags_seen;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (a == "--app") {
      const char* v = next();
      if (!v) return std::nullopt;
      o.app = v;
    } else if (a == "--impl") {
      const char* v = next();
      if (!v) return std::nullopt;
      o.impl = v;
    } else if (a == "--dataset") {
      if (!parse_flag(a, next(), o.dataset)) return std::nullopt;
    } else if (a == "--bytes") {
      if (!parse_flag(a, next(), o.bytes)) return std::nullopt;
    } else if (a == "--seed") {
      if (!parse_flag(a, next(), o.seed)) return std::nullopt;
      o.seed_set = true;
    } else if (a == "--device-kb") {
      if (!parse_flag(a, next(), o.device_kb)) return std::nullopt;
    } else if (a == "--threads") {
      if (!parse_flag(a, next(), o.threads)) return std::nullopt;
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--runs") {
      if (!parse_flag(a, next(), o.fuzz_runs)) return std::nullopt;
    } else if (a == "--time-budget") {
      if (!parse_flag(a, next(), o.time_budget_s)) return std::nullopt;
    } else if (a == "--max-bytes") {
      if (!parse_flag(a, next(), o.max_bytes)) return std::nullopt;
    } else if (a == "--corrupt-digest") {
      if (!parse_flag(a, next(), o.corrupt_digest)) return std::nullopt;
    } else if (a == "--repro") {
      const char* v = next();
      if (!v) return std::nullopt;
      o.repro_path = v;
    } else if (a == "--artifact-dir") {
      const char* v = next();
      if (!v) return std::nullopt;
      o.artifact_dir = v;
    } else if (a.rfind("--fault-", 0) == 0) {
      const char* v = next();
      if (!v) {
        std::fprintf(stderr, "%s requires a value\n", a.c_str());
        return std::nullopt;
      }
      if (!fault_flags_seen.insert(a).second) {
        std::fprintf(stderr, "duplicate fault flag: %s\n", a.c_str());
        err_exit = 2;
        return std::nullopt;
      }
      try {
        if (!gpusim::apply_fault_flag(o.faults, a, v)) {
          std::fprintf(stderr, "unknown fault flag: %s\n", a.c_str());
          err_exit = 2;
          return std::nullopt;
        }
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        err_exit = 2;
        return std::nullopt;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return std::nullopt;
    }
  }
  return o;
}

void print_result(const Options& o, const RunResult& r) {
  if (o.csv) {
    std::printf("app,impl,iterations,keys,table_bytes,heap_bytes,sim_ms,"
                "wall_ms_host,checksum\n");
    std::printf("%s,%s,%u,%llu,%llu,%llu,%.6f,%.3f,%016llx\n", o.app.c_str(),
                r.impl.c_str(), r.iterations,
                static_cast<unsigned long long>(r.keys),
                static_cast<unsigned long long>(r.table_bytes),
                static_cast<unsigned long long>(r.heap_bytes),
                r.sim_seconds * 1e3, r.wall_seconds * 1e3,
                static_cast<unsigned long long>(r.checksum));
    return;
  }
  std::printf("app            : %s (%s)\n", o.app.c_str(), r.impl.c_str());
  std::printf("iterations     : %u\n", r.iterations);
  std::printf("distinct keys  : %llu\n", static_cast<unsigned long long>(r.keys));
  if (r.table_bytes)
    std::printf("table size     : %s\n",
                TablePrinter::fmt_bytes(r.table_bytes).c_str());
  if (r.heap_bytes)
    std::printf("device heap    : %s (table/heap = %.2f)\n",
                TablePrinter::fmt_bytes(r.heap_bytes).c_str(),
                static_cast<double>(r.table_bytes) /
                    static_cast<double>(r.heap_bytes));
  std::printf("records        : %llu processed, %llu postponed executions\n",
              static_cast<unsigned long long>(r.stats.records_processed),
              static_cast<unsigned long long>(r.stats.records_postponed));
  std::printf("hash ops       : %llu (%llu new entries, %llu combines, "
              "%llu value appends)\n",
              static_cast<unsigned long long>(r.stats.hash_ops),
              static_cast<unsigned long long>(r.stats.inserts_new),
              static_cast<unsigned long long>(r.stats.combines),
              static_cast<unsigned long long>(r.stats.value_appends));
  std::printf("bus            : h2d %s in %llu txns, d2h %s, remote %s in "
              "%llu txns\n",
              TablePrinter::fmt_bytes(r.pcie.h2d_bytes).c_str(),
              static_cast<unsigned long long>(r.pcie.h2d_txns),
              TablePrinter::fmt_bytes(r.pcie.d2h_bytes).c_str(),
              TablePrinter::fmt_bytes(r.pcie.remote_bytes).c_str(),
              static_cast<unsigned long long>(r.pcie.remote_txns));
  std::printf("simulated time : %.3f ms\n", r.sim_seconds * 1e3);
  std::printf("wall clock     : %.1f ms (host; informational)\n",
              r.wall_seconds * 1e3);
  std::printf("result digest  : %016llx\n",
              static_cast<unsigned long long>(r.checksum));
}

int cmd_list() {
  std::printf("standalone applications (impls: %s):\n",
              join_engine_names(false).c_str());
  for (const AppInfo* a : all_apps())
    if (!a->is_mapreduce())
      std::printf("  %-8s %-22s %s\n", a->key, a->title, org_name(*a));
  std::printf("MapReduce applications (impls: %s):\n",
              join_engine_names(true).c_str());
  for (const AppInfo* a : all_apps())
    if (a->is_mapreduce())
      std::printf("  %-8s %-22s %s\n", a->key, a->title, org_name(*a));
  return 0;
}

// `sepo_cli engines`: the app x engine support matrix plus capability flags
// and one-line descriptions — all straight from the registry.
int cmd_engines() {
  std::vector<std::string> header = {"engine"};
  for (const AppInfo* a : all_apps()) header.emplace_back(a->key);
  header.emplace_back("device");
  header.emplace_back("telemetry");
  TablePrinter table(std::move(header));
  for (const Engine* e : all_engines()) {
    std::vector<std::string> row = {e->name()};
    for (const AppInfo* a : all_apps())
      row.emplace_back(e->supports(*a) ? "x" : "-");
    const Engine::Caps caps = e->caps();
    row.emplace_back(caps.simulated_device ? "sim" : "host");
    std::string telemetry;
    if (caps.trace) telemetry += "trace ";
    if (caps.journal) telemetry += "journal ";
    if (caps.faults) telemetry += "faults";
    if (telemetry.empty()) telemetry = "-";
    row.emplace_back(std::move(telemetry));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("\n");
  for (const Engine* e : all_engines())
    std::printf("  %-11s %s\n", e->name(), e->describe());
  return 0;
}

// Writes telemetry files requested via --metrics-out / --trace-out; returns
// false (after printing) when a file could not be written.
bool write_outputs(const obs::OutputOptions& out, const obs::MetricsReport& report,
                   const obs::TraceRecorder* rec) {
  std::string err;
  if (out.metrics_enabled()) {
    if (!report.write_file(out.metrics_path, &err)) {
      std::fprintf(stderr, "metrics: %s\n", err.c_str());
      return false;
    }
    std::fprintf(stderr, "metrics written to %s\n", out.metrics_path.c_str());
  }
  if (out.trace_enabled()) {
    if (!rec) {
      std::fprintf(stderr,
                   "trace: no simulated-device activity recorded "
                   "(--trace-out applies to impls with trace support; "
                   "see `sepo_cli engines`)\n");
    } else if (!rec->write_file(out.trace_path, &err)) {
      std::fprintf(stderr, "trace: %s\n", err.c_str());
      return false;
    } else {
      std::fprintf(stderr, "trace written to %s\n", out.trace_path.c_str());
    }
  }
  return true;
}

// Dumps the flight-recorder journal when --journal-out was given. Called on
// the success, RunError, and exception paths alike: the journal is most
// valuable precisely when the run died. `journal` is null for impls without
// a simulated device (nothing was recorded).
bool write_journal(const obs::OutputOptions& out,
                   const gpusim::EventJournal* journal) {
  if (!out.journal_enabled()) return true;
  if (!journal) {
    std::fprintf(stderr,
                 "journal: no simulated-device activity recorded "
                 "(--journal-out applies to impls with journal support; "
                 "see `sepo_cli engines`)\n");
    return true;
  }
  std::string err;
  if (!obs::write_journal_jsonl(*journal, out.journal_path,
                                /*max_events=*/4096, &err)) {
    std::fprintf(stderr, "journal: %s\n", err.c_str());
    return false;
  }
  std::fprintf(stderr, "journal written to %s\n", out.journal_path.c_str());
  return true;
}

obs::Json run_extra(const Options& o, std::size_t bytes) {
  obs::Json extra = obs::Json::object();
  extra.set("dataset", o.dataset);
  extra.set("input_bytes", static_cast<std::uint64_t>(bytes));
  extra.set("seed", o.seed);
  extra.set("device_bytes", static_cast<std::uint64_t>(o.device_kb << 10));
  return extra;
}

int cmd_run(const Options& o, const obs::OutputOptions& out) {
  const AppInfo* app = find_app(o.app);
  if (!app) {
    std::fprintf(stderr, "unknown app: %s\n", o.app.c_str());
    return 1;
  }
  const Engine* eng = resolve_engine(o.impl, *app);
  if (!eng) {
    std::fprintf(stderr, "unknown impl: %s (see `sepo_cli engines`)\n",
                 o.impl.c_str());
    return 1;
  }
  if (!eng->supports(*app)) {
    std::fprintf(stderr,
                 "impl %s does not support app %s (see `sepo_cli engines`)\n",
                 eng->name(), o.app.c_str());
    return 1;
  }
  const std::size_t bytes =
      o.bytes ? o.bytes : table1_bytes(app->table1_key(), o.dataset);

  EngineConfig cfg;
  cfg.gpu.device_bytes = o.device_kb << 10;
  cfg.gpu.faults = o.faults;
  cfg.gpu.pool_workers = o.workers;
  cfg.cpu.num_threads = o.threads;
  cfg.cpu.pool_workers = o.workers;

  // Per-run telemetry is gated on the engine's capability flags, not on an
  // impl-name heuristic.
  const Engine::Caps caps = eng->caps();
  if (o.faults.enabled() && !caps.faults)
    std::fprintf(stderr, "note: impl %s ignores fault injection\n",
                 eng->name());
  std::unique_ptr<obs::TraceRecorder> rec;
  if (out.trace_enabled() && caps.trace) {
    rec = std::make_unique<obs::TraceRecorder>();
    cfg.gpu.trace = rec.get();
  }
  // The journal outlives the try block so a thrown run still gets its
  // post-mortem dump (the run harness joins its workers before unwinding,
  // so the drain below sees quiescent shards).
  std::unique_ptr<gpusim::EventJournal> journal;
  if (out.journal_enabled() && caps.journal) {
    journal = std::make_unique<gpusim::EventJournal>();
    cfg.gpu.journal = journal.get();
  }

  try {
    std::fprintf(stderr, "generating %s of input...\n",
                 TablePrinter::fmt_bytes(bytes).c_str());
    const std::string input = app->generate(bytes, o.seed);
    const RunResult r = eng->run(*app, input, cfg);
    obs::MetricsReport report("sepo_cli");
    report.add_run(o.app, r, run_extra(o, bytes));
    if (r.error) {
      // The run failed structurally (typed RunError on the result) — still
      // write the telemetry so the failure is diffable, then exit 2. The
      // journal dump is the flight recorder's whole purpose here: the last
      // events before the failure, in simulated-time order.
      std::fprintf(stderr, "run failed (%s): %s\n", r.error.kind_name(),
                   r.error.message.c_str());
      write_outputs(out, report, rec.get());
      write_journal(out, journal.get());
      return 2;
    }
    print_result(o, r);
    if (!write_outputs(out, report, rec.get())) return 2;
    if (!write_journal(out, journal.get())) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    write_journal(out, journal.get());
    return 2;
  }
  return 0;
}

int cmd_compare(const Options& o, const obs::OutputOptions& out) {
  const AppInfo* app = find_app(o.app);
  if (!app) {
    std::fprintf(stderr, "unknown app: %s\n", o.app.c_str());
    return 1;
  }
  const Engine* test = resolve_engine(o.impl, *app);
  if (!test) {
    std::fprintf(stderr, "unknown impl: %s (see `sepo_cli engines`)\n",
                 o.impl.c_str());
    return 1;
  }
  if (!test->supports(*app)) {
    std::fprintf(stderr,
                 "impl %s does not support app %s (see `sepo_cli engines`)\n",
                 test->name(), o.app.c_str());
    return 1;
  }
  const Engine* base = baseline_engine(*app);
  std::printf("== %s: %s vs %s ==\n", o.app.c_str(), test->name(),
              base->name());
  const std::size_t bytes =
      o.bytes ? o.bytes : table1_bytes(app->table1_key(), o.dataset);
  std::unique_ptr<obs::TraceRecorder> rec;
  if (out.trace_enabled() && test->caps().trace)
    rec = std::make_unique<obs::TraceRecorder>();
  try {
    EngineConfig cfg;
    cfg.gpu.device_bytes = o.device_kb << 10;
    cfg.gpu.faults = o.faults;
    cfg.gpu.pool_workers = o.workers;
      cfg.gpu.trace = rec.get();
    cfg.cpu.num_threads = o.threads;
    cfg.cpu.pool_workers = o.workers;
    if (rec) rec->begin_section(o.app + "/" + test->name());
    const std::string input = app->generate(bytes, o.seed);
    const RunResult ra = test->run(*app, input, cfg);
    EngineConfig bcfg = cfg;
    bcfg.gpu.trace = nullptr;  // the trace follows the tested engine only
    const RunResult rb = base->run(*app, input, bcfg);
    if (ra.error) {
      std::fprintf(stderr, "%s run failed (%s): %s\n", test->name(),
                   ra.error.kind_name(), ra.error.message.c_str());
      return 2;
    }
    std::printf("%-7s: %.3f ms, %u iteration(s)\n", ra.impl.c_str(),
                ra.sim_seconds * 1e3, ra.iterations);
    std::printf("%-7s: %.3f ms\n", rb.impl.c_str(), rb.sim_seconds * 1e3);
    std::printf("speedup: %.2fx\n", rb.sim_seconds / ra.sim_seconds);
    std::printf("digests: %s\n",
                ra.checksum == rb.checksum ? "MATCH" : "MISMATCH");
    obs::MetricsReport report("sepo_cli");
    report.add_run(o.app, ra, run_extra(o, bytes));
    report.add_run(o.app, rb, run_extra(o, bytes));
    report.set_field("digest_match", ra.checksum == rb.checksum);
    if (!write_outputs(out, report, rec.get())) return 2;
    return ra.checksum == rb.checksum ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 2;
  }
}

// --- metrics file commands -------------------------------------------------

std::optional<obs::Json> load_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  auto json = obs::Json::parse(buf.str(), &err);
  if (!json) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return std::nullopt;
  }
  return json;
}

// Validates the metrics schema written by obs::MetricsReport. Returns a list
// of problems (empty = valid).
std::vector<std::string> check_metrics(const obs::Json& m) {
  std::vector<std::string> problems;
  if (m["schema_version"].as_i64() != obs::kMetricsSchemaVersion)
    problems.push_back("schema_version missing or not " +
                       std::to_string(obs::kMetricsSchemaVersion));
  if (!m["tool"].is_string()) problems.push_back("tool missing");
  const obs::Json& runs = m["runs"];
  if (!runs.is_array() || runs.size() == 0) {
    problems.push_back("runs missing or empty");
    return problems;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const obs::Json& r = runs.at(i);
    const std::string where = "runs[" + std::to_string(i) + "]";
    if (!r["app"].is_string()) problems.push_back(where + ".app missing");
    if (!r["impl"].is_string()) problems.push_back(where + ".impl missing");
    // Only a failed run may read 0: one refused before any simulated work
    // (MapCG on an input larger than the device) has nothing to time.
    const obs::Json& sim = r["sim_seconds"];
    if (!sim.is_number() || sim.as_double() < 0 ||
        (sim.as_double() == 0 && !r["error"].is_object()))
      problems.push_back(where +
                         ".sim_seconds missing, negative, or 0 on a run "
                         "without an error");
    // One simulated clock: a timed run's sim_seconds is its timeline
    // makespan plus the serialization term, nothing else.
    const obs::Json& tl = r["timeline"];
    if (!r["serialization_s"].is_number())
      problems.push_back(where + ".serialization_s missing");
    if (!tl.is_object())
      problems.push_back(where + ".timeline missing");
    else if (tl["commands"].as_u64() > 0 &&
             !obs::nearly_equal(r["sim_seconds"].as_double(),
                                tl["total"].as_double() +
                                    r["serialization_s"].as_double()))
      problems.push_back(where + ".sim_seconds != timeline.total + "
                         "serialization_s");
    if (!r["wall_seconds_host"].is_number())
      problems.push_back(where + ".wall_seconds_host missing");
    const obs::Json& host = r["host"];
    if (!host.is_object())
      problems.push_back(where + ".host missing");
    if (r["checksum_hex"].as_string().size() != 16)
      problems.push_back(where + ".checksum_hex not 16 hex digits");
    const obs::Json& stats = r["stats"];
    if (!stats.is_object()) {
      problems.push_back(where + ".stats missing");
    } else {
      // The counter set is generated from SEPO_STATS_FIELDS; require every
      // field, each in its block, so a drifted serializer cannot pass.
      gpusim::StatsSnapshot{}.for_each_field(
          [&](const char* name, std::uint64_t) {
            const bool in_host = obs::is_host_counter(name);
            const obs::Json& block = in_host ? host : stats;
            if (!block[name].is_number())
              problems.push_back(where + (in_host ? ".host." : ".stats.") +
                                 name + " missing");
            if (in_host && stats.find(name) != nullptr)
              problems.push_back(where + ".stats." + name +
                                 " is host-measured; it belongs in .host");
          });
    }
    for (const char* k : {"pcie", "serialization", "faults"})
      if (!r[k].is_object())
        problems.push_back(where + "." + k + " missing");
    if (!r["iteration_profiles"].is_array())
      problems.push_back(where + ".iteration_profiles missing");
    // v4: the occupancy time-series. Always an array — empty on baselines
    // without the SEPO iteration protocol, one sample per iteration on SEPO
    // paths.
    if (!r["timeseries"].is_array())
      problems.push_back(where + ".timeseries missing");
  }
  return problems;
}

int cmd_metrics_check(const std::string& path) {
  const auto m = load_metrics(path);
  if (!m) return 2;
  const auto problems = check_metrics(*m);
  for (const auto& p : problems)
    std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
  if (!problems.empty()) return 2;
  std::printf("%s: ok (%zu runs, tool %s)\n", path.c_str(),
              (*m)["runs"].size(), (*m)["tool"].as_string().c_str());
  return 0;
}

// v3..v9 differ only in additive / dropped / moved objects (v4 adds
// "timeseries", v5 adds the batched-insert totals, v6 drops them again, v7
// moves the host-measured counters from "stats" to "host", v8 swaps the
// analytic cross-check for "serialization_s", v9 adds each sample's
// "pages_used_peak"), so files across that range stay comparable on their
// shared fields.
bool readable_schema(std::int64_t v) {
  return v >= 3 && v <= obs::kMetricsSchemaVersion;
}

// A run's identity in metrics-diff: app/impl plus the input it ran on — the
// "dataset" extra when the writer recorded one, else "input_bytes". Keying
// by app/impl alone would pair a sweep's dataset #2..#4 runs with #1. A run
// that records neither (table3's one input on nine heap sizes) is keyed by
// its heap size.
std::string run_key(const obs::Json& r) {
  std::string k = r["app"].as_string() + "/" + r["impl"].as_string();
  if (r["dataset"].is_number())
    k += "/#" + std::to_string(r["dataset"].as_i64());
  else if (r["input_bytes"].is_number())
    k += "/" + std::to_string(r["input_bytes"].as_u64()) + "B";
  else if (r["heap_bytes"].as_u64() > 0)
    k += "/heap " + std::to_string(r["heap_bytes"].as_u64()) + "B";
  return k;
}

int cmd_metrics_diff(const std::string& old_path, const std::string& new_path,
                     double max_regress_pct) {
  const auto older = load_metrics(old_path);
  const auto newer = load_metrics(new_path);
  if (!older || !newer) return 2;

  // Files written under different schemas are incomparable (exit 2), which
  // is distinct from "comparable but regressed" (exit 3). Exception: within
  // v3..v9 compare the shared fields and warn.
  const std::int64_t old_v = (*older)["schema_version"].as_i64();
  const std::int64_t new_v = (*newer)["schema_version"].as_i64();
  if (old_v != new_v) {
    if (!readable_schema(old_v) || !readable_schema(new_v)) {
      std::fprintf(stderr,
                   "schema mismatch: %s is v%lld, %s is v%lld — not comparable\n",
                   old_path.c_str(), static_cast<long long>(old_v),
                   new_path.c_str(), static_cast<long long>(new_v));
      return 2;
    }
    std::fprintf(stderr,
                 "warning: schema v%lld vs v%lld — comparing shared fields "
                 "(v3..v9 differ only in added, dropped or moved objects)\n",
                 static_cast<long long>(old_v),
                 static_cast<long long>(new_v));
  }

  // Baseline run objects by run_key; first occurrence wins.
  std::map<std::string, const obs::Json*> base;
  for (const auto& r : (*older)["runs"].elements())
    base.emplace(run_key(r), &r);
  std::set<std::string> seen;

  TablePrinter table({"run", "old sim_ms", "new sim_ms", "delta %"});
  bool regressed = false;
  for (const auto& r : (*newer)["runs"].elements()) {
    const std::string k = run_key(r);
    const auto it = base.find(k);
    if (it == base.end()) {
      table.add_row({k, "-", TablePrinter::fmt(r["sim_seconds"].as_double() * 1e3, 3),
                     "new"});
      continue;
    }
    seen.insert(k);
    const double o = (*it->second)["sim_seconds"].as_double();
    const double n = r["sim_seconds"].as_double();
    // Relative-epsilon comparison: the simulated-time fields are
    // deterministic in the run config, but the doubles that encode them can
    // differ in the last bits across platforms (libm, FMA, summation
    // order). Within epsilon the values ARE equal — report a clean 0 delta
    // instead of a spurious drift.
    const double pct =
        o > 0 && !obs::nearly_equal(o, n) ? (n - o) / o * 100.0 : 0.0;
    if (pct > max_regress_pct) regressed = true;
    table.add_row({k, TablePrinter::fmt(o * 1e3, 3), TablePrinter::fmt(n * 1e3, 3),
                   TablePrinter::fmt(pct, 2)});

    // Determinism drift check on the other modelled-time fields (the
    // per-resource timeline busy totals and makespan) and the simulated
    // counters — informational, same epsilon discipline. The "host" object
    // (and a pre-v7 file's host counters in "stats") is never compared: it
    // measures the host's thread scheduling, not the simulation.
    const auto drift = [&](const char* label, double a, double b) {
      if (!obs::nearly_equal(a, b))
        std::fprintf(stderr, "note: %s %s drifted: %.9g -> %.9g\n", k.c_str(),
                     label, a, b);
    };
    const obs::Json& ot = (*it->second)["timeline"];
    const obs::Json& nt = r["timeline"];
    if (ot.is_object() && nt.is_object())
      for (const char* f :
           {"compute_busy", "h2d_busy", "d2h_busy", "remote_busy", "total"})
        drift((std::string("timeline.") + f).c_str(), ot[f].as_double(),
              nt[f].as_double());
    const obs::Json& os = (*it->second)["stats"];
    const obs::Json& ns = r["stats"];
    gpusim::StatsSnapshot{}.for_each_field([&](const char* f, std::uint64_t) {
      if (obs::is_host_counter(f) || !os[f].is_number() || !ns[f].is_number())
        return;
      if (os[f].as_u64() != ns[f].as_u64())
        std::fprintf(stderr, "note: %s stats.%s drifted: %llu -> %llu\n",
                     k.c_str(), f,
                     static_cast<unsigned long long>(os[f].as_u64()),
                     static_cast<unsigned long long>(ns[f].as_u64()));
    });
  }
  // A baseline run the newer file lacks is a refusal, not a pass: the
  // comparison no longer covers what the baseline measured.
  for (const auto& [k, r] : base) {
    if (seen.count(k) != 0) continue;
    table.add_row(
        {k, TablePrinter::fmt((*r)["sim_seconds"].as_double() * 1e3, 3), "-",
         "missing"});
  }
  table.print(std::cout);
  if (seen.empty()) {
    std::fprintf(stderr, "no runs in common\n");
    return 2;
  }
  if (seen.size() < base.size()) {
    std::fprintf(stderr, "%zu baseline run(s) missing from %s\n",
                 base.size() - seen.size(), new_path.c_str());
    return 2;
  }
  if (regressed) {
    std::fprintf(stderr, "sim_seconds regression beyond %.1f%%\n",
                 max_regress_pct);
    return 3;
  }
  std::printf("ok: no sim_seconds regression beyond %.1f%%\n", max_regress_pct);
  return 0;
}

// --- wall-clock benchmark file commands (BENCH_host.json) ------------------

// Validates the schema written by bench/host_perf (obs::kBenchSchemaVersion).
std::vector<std::string> check_bench(const obs::Json& m) {
  std::vector<std::string> problems;
  if (m["schema_version"].as_i64() != obs::kBenchSchemaVersion)
    problems.push_back("schema_version missing or not " +
                       std::to_string(obs::kBenchSchemaVersion));
  if (!m["tool"].is_string()) problems.push_back("tool missing");
  if (!m["workers"].is_number()) problems.push_back("workers missing");
  if (!m["tiny"].is_bool()) problems.push_back("tiny missing");
  const obs::Json& benches = m["benches"];
  if (!benches.is_array() || benches.size() == 0) {
    problems.push_back("benches missing or empty");
    return problems;
  }
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const obs::Json& b = benches.at(i);
    const std::string where = "benches[" + std::to_string(i) + "]";
    if (!b["name"].is_string()) problems.push_back(where + ".name missing");
    if (!b["items"].is_number() || b["items"].as_i64() <= 0)
      problems.push_back(where + ".items missing or non-positive");
    if (!b["reps"].is_number() || b["reps"].as_i64() <= 0)
      problems.push_back(where + ".reps missing or non-positive");
    if (!b["wall_seconds"].is_number() || b["wall_seconds"].as_double() <= 0)
      problems.push_back(where + ".wall_seconds missing or non-positive");
    if (!b["ops_per_sec"].is_number() || b["ops_per_sec"].as_double() <= 0)
      problems.push_back(where + ".ops_per_sec missing or non-positive");
  }
  // Flight-recorder overhead gate: host_perf measures the journal_disabled /
  // journal_event_sharded pair on a 1-worker pool and writes the median
  // per-rep relative cost. The field is optional (older files predate it),
  // but when present it must stay under 10% — the journal is a hot-path
  // instrument, not a tax.
  const obs::Json* overhead = m.find("journal_overhead_pct");
  if (overhead != nullptr) {
    if (!overhead->is_number())
      problems.push_back("journal_overhead_pct not a number");
    else if (overhead->as_double() > 10.0)
      problems.push_back(
          "journal_overhead_pct " +
          TablePrinter::fmt(overhead->as_double(), 2) +
          " exceeds the 10% event-journal overhead budget");
  }
  return problems;
}

int cmd_bench_check(const std::string& path) {
  const auto m = load_metrics(path);
  if (!m) return 2;
  const auto problems = check_bench(*m);
  for (const auto& p : problems)
    std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
  if (!problems.empty()) return 2;
  std::printf("%s: ok (%zu benches, %lld workers, tool %s)\n", path.c_str(),
              (*m)["benches"].size(),
              static_cast<long long>((*m)["workers"].as_i64()),
              (*m)["tool"].as_string().c_str());
  return 0;
}

// Wall-clock analogue of cmd_metrics_diff: compares wall_seconds by bench
// name. Wall clock is host-dependent, so the default threshold is looser
// than metrics-diff's (these numbers wobble with machine load) — pass
// --max-regress-pct to tighten or relax.
int cmd_bench_diff(const std::string& old_path, const std::string& new_path,
                   double max_regress_pct) {
  const auto older = load_metrics(old_path);
  const auto newer = load_metrics(new_path);
  if (!older || !newer) return 2;

  const std::int64_t old_v = (*older)["schema_version"].as_i64();
  const std::int64_t new_v = (*newer)["schema_version"].as_i64();
  if (old_v != new_v) {
    std::fprintf(stderr,
                 "schema mismatch: %s is v%lld, %s is v%lld — not comparable\n",
                 old_path.c_str(), static_cast<long long>(old_v),
                 new_path.c_str(), static_cast<long long>(new_v));
    return 2;
  }

  std::map<std::string, double> base;
  for (const auto& b : (*older)["benches"].elements())
    base.emplace(b["name"].as_string(), b["wall_seconds"].as_double());

  TablePrinter table({"bench", "old wall_ms", "new wall_ms", "delta %"});
  bool regressed = false;
  std::size_t matched = 0;
  for (const auto& b : (*newer)["benches"].elements()) {
    const std::string k = b["name"].as_string();
    const auto it = base.find(k);
    if (it == base.end()) {
      table.add_row({k, "-",
                     TablePrinter::fmt(b["wall_seconds"].as_double() * 1e3, 3),
                     "new"});
      continue;
    }
    ++matched;
    const double o = it->second, n = b["wall_seconds"].as_double();
    const double pct = o > 0 ? (n - o) / o * 100.0 : 0.0;
    if (pct > max_regress_pct) regressed = true;
    table.add_row({k, TablePrinter::fmt(o * 1e3, 3),
                   TablePrinter::fmt(n * 1e3, 3), TablePrinter::fmt(pct, 2)});
  }
  table.print(std::cout);
  if (matched == 0) {
    std::fprintf(stderr, "no bench names in common\n");
    return 2;
  }
  if (regressed) {
    std::fprintf(stderr, "wall_seconds regression beyond %.1f%%\n",
                 max_regress_pct);
    return 3;
  }
  std::printf("ok: no wall_seconds regression beyond %.1f%%\n",
              max_regress_pct);
  return 0;
}

// --- run report ------------------------------------------------------------

// Renders the per-iteration SEPO profile of one run as an aligned table.
void report_iterations(const obs::Json& r) {
  const obs::Json& profiles = r["iteration_profiles"];
  if (!profiles.is_array() || profiles.size() == 0) {
    std::printf("  iterations     : none recorded (run died before the first "
                "boundary, or baseline without the SEPO protocol)\n");
    return;
  }
  TablePrinter table({"iter", "processed", "postponed", "postpone %",
                      "page acq", "launches", "free after", "halted"});
  for (const auto& p : profiles.elements()) {
    table.add_row({TablePrinter::fmt_int(p["iteration"].as_i64()),
                   TablePrinter::fmt_int(p["records_processed"].as_i64()),
                   TablePrinter::fmt_int(p["records_postponed"].as_i64()),
                   TablePrinter::fmt(p["postpone_rate"].as_double() * 100.0, 1),
                   TablePrinter::fmt_int(p["page_acquires"].as_i64()),
                   TablePrinter::fmt_int(p["kernel_launches"].as_i64()),
                   TablePrinter::fmt_int(p["free_pages_after"].as_i64()),
                   p["halted"].as_bool() ? "yes" : "no"});
  }
  table.print(std::cout);
}

// Occupancy high-water marks from the v4 time-series (skipped on v3 files
// and on runs without samples). A v9 sample carries the pages used just
// before its flush; older samples only have the free count after it, which
// reads 0 used on every run that spills.
void report_occupancy(const obs::Json& r) {
  const obs::Json& series = r["timeseries"];
  if (!series.is_array() || series.size() == 0) return;
  std::uint64_t pages_total = 0, used_max = 0, used_iter = 0;
  std::uint64_t seized_max = 0, staging_max = 0, staging_slots = 0;
  bool first = true;
  for (const auto& s : series.elements()) {
    pages_total = s["pages_total"].as_u64();
    staging_slots = s["staging_slots"].as_u64();
    const obs::Json* peak = s.find("pages_used_peak");
    const std::uint64_t used =
        peak != nullptr ? peak->as_u64()
                        : pages_total - s["pages_free"].as_u64() -
                              s["pages_seized"].as_u64();
    // Strictly greater: the report names the first iteration that reached
    // the high-water, which later ones may only repeat.
    if (first || used > used_max) {
      used_max = used;
      used_iter = s["iteration"].as_u64();
      first = false;
    }
    seized_max = std::max(seized_max, s["pages_seized"].as_u64());
    staging_max = std::max(staging_max, s["staging_busy"].as_u64());
  }
  std::printf("  occupancy      : high-water %llu/%llu heap pages used "
              "(iteration %llu), %llu seized by pressure at peak, staging "
              "%llu/%llu slots busy\n",
              static_cast<unsigned long long>(used_max),
              static_cast<unsigned long long>(pages_total),
              static_cast<unsigned long long>(used_iter),
              static_cast<unsigned long long>(seized_max),
              static_cast<unsigned long long>(staging_max),
              static_cast<unsigned long long>(staging_slots));
}

// The host's side of the run (v7 "host" object; skipped on older files):
// wall clock and the counters that depend on thread scheduling.
void report_host(const obs::Json& r) {
  const obs::Json* host = r.find("host");
  if (host == nullptr) return;
  std::printf("  host (not sim) : %.3f s wall, %llu contended lock acquires, "
              "%llu atomic retries\n",
              r["wall_seconds_host"].as_double(),
              static_cast<unsigned long long>((*host)["lock_contended"].as_u64()),
              static_cast<unsigned long long>((*host)["atomic_retries"].as_u64()));
}

// One line, naming every engine — greppable and CI-matchable.
void report_faults(const obs::Json& r) {
  const obs::Json& f = r["faults"];
  if (!f.is_object()) return;
  std::uint64_t retries = 0;
  for (const char* eng : {"compute", "h2d", "d2h", "remote"})
    retries += f[eng]["retries"].as_u64();
  std::printf("  fault summary  : compute=%llu h2d=%llu d2h=%llu remote=%llu "
              "faults (%llu total, %llu retries, %.3f ms backoff)\n",
              static_cast<unsigned long long>(f["compute"]["faults"].as_u64()),
              static_cast<unsigned long long>(f["h2d"]["faults"].as_u64()),
              static_cast<unsigned long long>(f["d2h"]["faults"].as_u64()),
              static_cast<unsigned long long>(f["remote"]["faults"].as_u64()),
              static_cast<unsigned long long>(f["total_faults"].as_u64()),
              static_cast<unsigned long long>(retries),
              f["total_backoff_s"].as_double() * 1e3);
}

// Top-5 hottest buckets of the final table, from the occupancy histogram
// ([n] = buckets holding n entries; the last bin aggregates longer chains).
void report_hot_buckets(const obs::Json& r) {
  const obs::Json& hist = r["bucket_histogram"];
  if (!hist.is_array() || hist.size() == 0) return;
  std::string line;
  int shown = 0;
  for (std::size_t i = hist.size(); i-- > 0 && shown < 5;) {
    const std::uint64_t count = hist.at(i).as_u64();
    if (count == 0 || i == 0) continue;
    if (!line.empty()) line += ", ";
    line += std::to_string(count) + " bucket(s) with " + std::to_string(i) +
            (i + 1 == hist.size() ? "+ entries" : " entries");
    ++shown;
  }
  if (!line.empty())
    std::printf("  hottest buckets: %s\n", line.c_str());
}

// Renders a human-readable post-mortem from a metrics file (schema v3..v9;
// v3 predates the occupancy time-series, so that section is absent)
// plus, optionally, a JSONL journal dump written via --journal-out.
int cmd_report(const std::string& metrics_path,
               const std::string& journal_path, std::size_t last_n) {
  const auto m = load_metrics(metrics_path);
  if (!m) return 2;
  const std::int64_t v = (*m)["schema_version"].as_i64();
  if (!readable_schema(v)) {
    std::fprintf(stderr, "%s: schema v%lld not supported (want v3..v%d)\n",
                 metrics_path.c_str(), static_cast<long long>(v),
                 obs::kMetricsSchemaVersion);
    return 2;
  }
  const obs::Json& runs = (*m)["runs"];
  if (!runs.is_array() || runs.size() == 0) {
    std::fprintf(stderr, "%s: no runs\n", metrics_path.c_str());
    return 2;
  }
  std::printf("report: %s (schema v%lld, tool %s, %zu run(s))\n",
              metrics_path.c_str(), static_cast<long long>(v),
              (*m)["tool"].as_string().c_str(), runs.size());
  if (v == 3)
    std::printf("note: v3 file — no occupancy time-series (added in v4)\n");

  for (const auto& r : runs.elements()) {
    const obs::Json* err = r.find("error");
    std::printf("\n== %s / %s: %s ==\n", r["app"].as_string().c_str(),
                r["impl"].as_string().c_str(),
                err != nullptr ? "FAILED" : "ok");
    if (err != nullptr)
      std::printf("  error          : %s: %s\n",
                  (*err)["kind"].as_string().c_str(),
                  (*err)["message"].as_string().c_str());
    std::printf("  simulated time : %.3f ms in %llu iteration(s), checksum "
                "%s\n",
                r["sim_seconds"].as_double() * 1e3,
                static_cast<unsigned long long>(r["iterations"].as_u64()),
                r["checksum_hex"].as_string().c_str());
    if (const double ser = r["serialization_s"].as_double(); ser > 0)  // v8
      std::printf("  serialization  : %.3f ms of it (%.1f%%, hot-lock term)\n",
                  ser * 1e3, ser / r["sim_seconds"].as_double() * 100.0);
    report_host(r);
    report_iterations(r);
    report_occupancy(r);
    report_faults(r);
    report_hot_buckets(r);
  }

  if (!journal_path.empty()) {
    std::string err;
    const auto events = obs::read_journal_jsonl(journal_path, &err);
    if (!events) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    std::printf("\n== journal: %s (%zu event(s)) ==\n", journal_path.c_str(),
                events->size());
    std::uint64_t counts[gpusim::kNumJournalEventKinds] = {};
    for (const auto& e : *events) counts[static_cast<int>(e.kind)]++;
    std::string kinds;
    for (int k = 0; k < gpusim::kNumJournalEventKinds; ++k) {
      if (counts[k] == 0) continue;
      if (!kinds.empty()) kinds += ", ";
      kinds += std::string(gpusim::journal_kind_name(
                   static_cast<gpusim::JournalEventKind>(k))) +
               "=" + std::to_string(counts[k]);
    }
    std::printf("  by kind: %s\n", kinds.empty() ? "(empty)" : kinds.c_str());
    if (!events->empty() && last_n > 0) {
      std::printf("  last %zu event(s):\n",
                  std::min(last_n, events->size()));
      TablePrinter table({"ts (ms)", "worker", "kind", "arg0", "arg1"});
      const std::size_t first =
          events->size() > last_n ? events->size() - last_n : 0;
      for (std::size_t i = first; i < events->size(); ++i) {
        const gpusim::JournalEvent& e = (*events)[i];
        table.add_row({TablePrinter::fmt(e.sim_ts * 1e3, 6),
                       TablePrinter::fmt_int(e.worker),
                       gpusim::journal_kind_name(e.kind),
                       TablePrinter::fmt_int(static_cast<long long>(e.arg0)),
                       TablePrinter::fmt_int(static_cast<long long>(e.arg1))});
      }
      table.print(std::cout);
    }
  }
  return 0;
}

// --- differential fuzzing --------------------------------------------------

// One line per outcome side: "ok digest=... keys=N" or "typed_error(kind)".
std::string outcome_brief(const FuzzEngineOutcome& o) {
  char buf[96];
  if (o.status == FuzzStatus::kOk) {
    std::snprintf(buf, sizeof buf, "ok digest=%016llx keys=%llu",
                  static_cast<unsigned long long>(o.digest),
                  static_cast<unsigned long long>(o.keys));
    return buf;
  }
  return std::string(to_string(o.status)) + "(" + o.error_kind + ")";
}

FuzzOptions fuzz_options_from(const Options& o) {
  FuzzOptions fo;
  if (o.seed_set) fo.seed = o.seed;
  fo.runs = o.fuzz_runs;
  fo.time_budget_s = o.time_budget_s;
  if (o.max_bytes != 0) fo.max_input_bytes = o.max_bytes;
  fo.corrupt_digest_xor = o.corrupt_digest;
  return fo;
}

// Replays one repro artifact bit-identically and checks the verdict against
// the recorded one. Exit 0 = reproduced, 4 = the verdict changed (the bug
// moved or was fixed), 2 = unreadable artifact.
int cmd_fuzz_repro(const Options& o) {
  std::string err;
  const auto repro = obs::read_fuzz_repro(o.repro_path, &err);
  if (!repro) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const FuzzRunner runner{fuzz_options_from(o)};
  const FuzzResult r = runner.execute(repro->plan);
  std::printf("repro %s: plan %llu seed %llu — %s on %s, %zu bytes\n",
              o.repro_path.c_str(),
              static_cast<unsigned long long>(repro->plan.id),
              static_cast<unsigned long long>(repro->plan.master_seed),
              repro->plan.app.c_str(), repro->plan.engine.c_str(),
              repro->plan.input_bytes);
  std::printf("  engine  : %s\n", outcome_brief(r.engine).c_str());
  std::printf("  baseline: %s\n", outcome_brief(r.baseline).c_str());
  std::printf("  verdict : %s (recorded %s)\n", to_string(r.verdict),
              repro->verdict.c_str());
  if (repro->verdict != to_string(r.verdict)) {
    std::fprintf(stderr,
                 "verdict differs from the recorded artifact — the failure "
                 "no longer reproduces as recorded\n");
    return 4;
  }
  std::printf("reproduced\n");
  return 0;
}

int cmd_fuzz(const Options& o) {
  if (!o.repro_path.empty()) return cmd_fuzz_repro(o);

  FuzzOptions fo = fuzz_options_from(o);
  fo.observer = [](const FuzzResult& r) {
    std::fprintf(stderr, "plan %llu: %s/%s %zu bytes dev=%zu KiB workers=%zu "
                 "faults=%s -> %s\n",
                 static_cast<unsigned long long>(r.plan.id),
                 r.plan.app.c_str(), r.plan.engine.c_str(),
                 r.plan.input_bytes, r.plan.device_bytes >> 10,
                 r.plan.workers, r.plan.faults.enabled() ? "on" : "off",
                 to_string(r.verdict));
  };
  const FuzzRunner runner{std::move(fo)};
  const FuzzRunner::Summary s = runner.run();

  for (const FuzzResult& f : s.failures) {
    const std::string path = o.artifact_dir + "/fuzz_repro_" +
                             std::to_string(f.plan.id) + ".json";
    std::string err;
    if (!obs::write_fuzz_repro(f, path, &err)) {
      std::fprintf(stderr, "repro: %s\n", err.c_str());
      return 2;
    }
    std::printf("FAILURE plan %llu (%s on %s): %s\n",
                static_cast<unsigned long long>(f.plan.id),
                f.plan.app.c_str(), f.plan.engine.c_str(),
                to_string(f.verdict));
    std::printf("  engine  : %s\n", outcome_brief(f.engine).c_str());
    std::printf("  baseline: %s\n", outcome_brief(f.baseline).c_str());
    std::printf("  shrunk repro written to %s — replay with "
                "`sepo_cli fuzz --repro %s`\n",
                path.c_str(), path.c_str());
  }
  std::printf("fuzz: seed %llu, %llu plan(s) executed, %llu agreed, "
              "%llu declined, %zu failure(s)%s\n",
              static_cast<unsigned long long>(runner.options().seed),
              static_cast<unsigned long long>(s.executed),
              static_cast<unsigned long long>(s.agreed),
              static_cast<unsigned long long>(s.declined), s.failures.size(),
              s.hit_time_budget ? " [time budget hit]" : "");
  return s.failures.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const obs::OutputOptions out = obs::OutputOptions::from_args(argc, argv);
  const std::size_t workers = pool_workers_from_args(argc, argv);

  // The metrics/bench file commands take positional paths, not run options.
  if (argc >= 2 && (std::strcmp(argv[1], "metrics-check") == 0 ||
                    std::strcmp(argv[1], "bench-check") == 0)) {
    if (argc != 3) {
      usage();
      return 1;
    }
    return std::strcmp(argv[1], "bench-check") == 0
               ? cmd_bench_check(argv[2])
               : cmd_metrics_check(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "report") == 0) {
    std::string journal_path;
    std::size_t last_n = 10;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
        journal_path = argv[++i];
      } else if (std::strcmp(argv[i], "--last") == 0 && i + 1 < argc) {
        if (!parse_flag<std::size_t>("--last", argv[++i], last_n)) return 1;
      } else {
        paths.emplace_back(argv[i]);
      }
    }
    if (paths.size() != 1) {
      usage();
      return 1;
    }
    return cmd_report(paths[0], journal_path, last_n);
  }
  if (argc >= 2 && (std::strcmp(argv[1], "metrics-diff") == 0 ||
                    std::strcmp(argv[1], "bench-diff") == 0)) {
    const bool bench = std::strcmp(argv[1], "bench-diff") == 0;
    double max_regress_pct = bench ? 25.0 : 5.0;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--max-regress-pct") == 0 && i + 1 < argc) {
        if (!parse_flag<double>("--max-regress-pct", argv[++i],
                                max_regress_pct))
          return 1;
      } else {
        paths.emplace_back(argv[i]);
      }
    }
    if (paths.size() != 2) {
      usage();
      return 1;
    }
    return bench ? cmd_bench_diff(paths[0], paths[1], max_regress_pct)
                 : cmd_metrics_diff(paths[0], paths[1], max_regress_pct);
  }

  int err_exit = 1;
  auto opts = parse(argc, argv, err_exit);
  if (!opts) {
    if (err_exit == 1) usage();
    return err_exit;
  }
  opts->workers = workers;
  if (opts->command == "list") return cmd_list();
  if (opts->command == "engines") return cmd_engines();
  if (opts->command == "run") return cmd_run(*opts, out);
  if (opts->command == "compare") return cmd_compare(*opts, out);
  if (opts->command == "fuzz") return cmd_fuzz(*opts);
  usage();
  return 1;
}
