// Figure 6 — "Application speedup over CPU multi-threaded implementation.
// For the last three, the baseline is Phoenix++."
//
// Runs all seven applications over the four Table-I dataset sizes (scaled
// 1:1000) and prints, per bar: the speedup of the SEPO-GPU implementation
// over its CPU baseline and the number of SEPO iterations (the number shown
// on top of each bar in the paper's figure). Result checksums of the two
// implementations are cross-validated on every run.
//
//   fig6_speedup [--tiny] [--workers N] [--fault-* ...]
//                [--metrics-out=FILE] [--trace-out=FILE]
//
// --tiny restricts to dataset #1 (the ctest metrics fixture uses it);
// --fault-* flags (see sepo_cli usage) enable seeded fault injection on the
// GPU runs — the chaos fixture exercises this: under transfer faults the
// SEPO result must still digest-match the CPU baseline; --metrics-out
// writes the full per-run telemetry (EXPERIMENTS.md "BENCH_*.json");
// --trace-out records the GPU runs onto one simulated timeline, one section
// per (app, dataset). Exits 1 on any digest MISMATCH.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "common/table_printer.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace sepo;
using namespace sepo::apps;

namespace {

struct Row {
  std::string app;
  int dataset;
  std::size_t input_bytes;
  RunResult gpu, cpu;
};

// One Figure-6 bar: the SEPO engine for the app's kind vs its reference
// baseline, resolved through the registry. Seeds stay per-kind (1000+d
// standalone, 2000+d MapReduce) to keep the generated inputs — and thus the
// committed BENCH_fig6.json — identical to the pre-registry harness.
Row run_one(const AppInfo& app, int dataset, const gpusim::FaultConfig& faults,
            std::size_t workers, obs::TraceRecorder* rec) {
  const std::size_t bytes = table1_bytes(app.table1_key(), dataset);
  const std::uint64_t seed = (app.is_mapreduce() ? 2000 : 1000) + dataset;
  const std::string input = app.generate(bytes, seed);
  if (rec) rec->begin_section(std::string(app.title) + " #" +
                              std::to_string(dataset));
  EngineConfig cfg;
  cfg.gpu.faults = faults;
  cfg.gpu.trace = rec;
  cfg.gpu.pool_workers = workers;
  cfg.cpu.pool_workers = workers;
  EngineConfig bcfg = cfg;
  bcfg.gpu.trace = nullptr;
  return {app.title, dataset, input.size(),
          resolve_engine("gpu", app)->run(app, input, cfg),
          baseline_engine(app)->run(app, input, bcfg)};
}

}  // namespace

int main(int argc, char** argv) {
  // Written into the metrics file, so it says how to regenerate itself.
  std::string command = "fig6_speedup";
  for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
  const obs::OutputOptions out = obs::OutputOptions::from_args(argc, argv);
  const std::size_t workers = pool_workers_from_args(argc, argv);
  bool tiny = false;
  gpusim::FaultConfig faults;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      tiny = true;
    } else if (a.rfind("--fault-", 0) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", a.c_str());
        return 1;
      }
      try {
        if (!gpusim::apply_fault_flag(faults, a, argv[++i])) {
          std::fprintf(stderr, "unknown option: %s\n", a.c_str());
          return 1;
        }
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return 1;
    }
  }
  const int max_dataset = tiny ? 1 : 4;

  std::printf("== Figure 6: speedup over CPU multi-threaded baseline "
              "(MapReduce apps: over Phoenix++) ==\n");
  std::printf("   datasets: paper Table I scaled 1:1000 (GB -> MB); device: "
              "4 MiB (~1:1000 of the usable GTX 780ti capacity)%s\n\n",
              tiny ? "; --tiny: dataset #1 only" : "");

  std::unique_ptr<obs::TraceRecorder> rec;
  if (out.trace_enabled()) rec = std::make_unique<obs::TraceRecorder>();

  std::vector<Row> rows;
  // The figure's bar order, not the registry's display order.
  for (const char* key : {"netflix", "dna", "pvc", "ii", "wc", "pc", "geo"})
    for (int d = 1; d <= max_dataset; ++d)
      rows.push_back(run_one(*find_app(key), d, faults, workers, rec.get()));

  TablePrinter table({"app", "dataset", "input", "iterations", "table/heap",
                      "gpu sim (ms)", "cpu sim (ms)", "speedup", "results"});
  double sum_speedup = 0;
  int mismatches = 0;
  for (const Row& r : rows) {
    const double speedup = r.cpu.sim_seconds / r.gpu.sim_seconds;
    sum_speedup += speedup;
    const bool ok = !r.gpu.error && r.gpu.checksum == r.cpu.checksum;
    if (!ok) ++mismatches;
    table.add_row(
        {r.app, "#" + std::to_string(r.dataset),
         TablePrinter::fmt_bytes(r.input_bytes),
         TablePrinter::fmt_int(r.gpu.iterations),
         TablePrinter::fmt(static_cast<double>(r.gpu.table_bytes) /
                               static_cast<double>(r.gpu.heap_bytes),
                           2),
         TablePrinter::fmt(r.gpu.sim_seconds * 1e3, 3),
         TablePrinter::fmt(r.cpu.sim_seconds * 1e3, 3),
         TablePrinter::fmt(speedup, 2),
         r.gpu.error ? r.gpu.error.kind_name()
                     : (ok ? "match" : "MISMATCH")});
  }
  table.print(std::cout);
  std::printf("\naverage speedup: %.2f (paper reports 3.5 on average)\n",
              sum_speedup / static_cast<double>(rows.size()));
  std::printf("paper shape: Inverted Index and Word Count do not perform "
              "well (divergence / lock contention); others see clear "
              "speedups; iteration counts rise with dataset size.\n");

  if (out.metrics_enabled()) {
    obs::MetricsReport report("fig6_speedup");
    report.set_field("command", command);
    report.set_field("workers",
                     static_cast<std::uint64_t>(
                         gpusim::ThreadPool::resolve_workers(workers)));
    report.set_field("tiny", tiny);
    report.set_field("average_speedup",
                     sum_speedup / static_cast<double>(rows.size()));
    for (const Row& r : rows) {
      obs::Json extra = obs::Json::object();
      extra.set("dataset", r.dataset);
      extra.set("input_bytes", static_cast<std::uint64_t>(r.input_bytes));
      extra.set("speedup", r.cpu.sim_seconds / r.gpu.sim_seconds);
      extra.set("digest_match", r.gpu.checksum == r.cpu.checksum);
      obs::Json extra_cpu = extra;
      report.add_run(r.app, r.gpu, std::move(extra));
      report.add_run(r.app, r.cpu, std::move(extra_cpu));
    }
    report.add_table("fig6", table);
    std::string err;
    if (!report.write_file(out.metrics_path, &err)) {
      std::fprintf(stderr, "metrics: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", out.metrics_path.c_str());
  }
  if (rec) {
    std::string err;
    if (!rec->write_file(out.trace_path, &err)) {
      std::fprintf(stderr, "trace: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", out.trace_path.c_str());
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "%d run(s) failed or mismatched the CPU baseline\n",
                 mismatches);
    return 1;
  }
  return 0;
}
