// Table II — "Speedups over MapCG."
//
// Runs the three MapReduce applications on our SEPO runtime and on the
// MapCG-style baseline. As in the paper (§VI-C), MapCG only works for the
// smallest datasets: it has no SEPO, so execution fails when device memory
// runs out — demonstrated at the end.
//
//   table2_mapcg [--tiny] [--workers N] [--fault-* ...]
//                [--metrics-out=FILE] [--trace-out=FILE]
//
// The flags are the paper-table benches' shared set (bench/sweep.hpp);
// --tiny skips the larger-dataset demonstration. Exits 1 on any digest
// MISMATCH or failed run in the table.
#include <cstdio>
#include <iostream>
#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "common/table_printer.hpp"
#include "sweep.hpp"

using namespace sepo;
using namespace sepo::apps;

int main(int argc, char** argv) {
  bench::Sweep sweep("table2_mapcg", argc, argv);
  std::printf("== Table II: speedups of our MapReduce runtime over MapCG ==\n");
  std::printf("   datasets: 0.55 MiB (paper used 200-600 MB against a 3 GB "
              "card; same ~1:1000 scale)\n\n");

  TablePrinter table({"application", "ours (ms)", "MapCG (ms)", "speedup",
                      "MapCG serial atomics", "results"});
  const Engine& sepo = *find_engine("sepo-mr");
  const Engine& mapcg = *find_engine("mapcg");
  for (const char* key : {"wc", "pc", "geo"}) {
    const AppInfo& app = *find_app(key);
    const std::string input =
        app.generate(static_cast<std::size_t>(0.55 * 1024 * 1024), 77);
    const bench::Pair p = sweep.run_pair(
        app, sepo, mapcg, input, sweep.config(),
        obs::Json::object().set("input_bytes",
                                static_cast<std::uint64_t>(input.size())));
    table.add_row({app.title, TablePrinter::fmt(p.run.sim_seconds * 1e3, 3),
                   TablePrinter::fmt(p.ref.sim_seconds * 1e3, 3),
                   TablePrinter::fmt(p.speedup(), 2) + "X",
                   TablePrinter::fmt_int(static_cast<long long>(
                       p.ref.serial.serial_atomic_ops)),
                   p.verdict()});
  }
  table.print(std::cout);
  std::printf("\npaper reports: Word Count 1.05X, Patent Citation 2.42X, "
              "Geo Location 2.55X\n");

  // §VI-C: "the execution fails when there is no more free memory to store
  // newly inserted KV pairs" — MapCG cannot process dataset #2 and beyond.
  // The failed runs go into the metrics report with their error; one refused
  // before any simulated work (#4) records sim_seconds 0.
  if (!sweep.tiny()) {
    std::printf("\nMapCG on larger datasets (no SEPO, no larger-than-memory "
                "support):\n");
    const AppInfo& wc = *find_app("wc");
    for (int d = 2; d <= 4; ++d) {
      const std::string input = wc.generate(table1_bytes("wc", d), 78);
      const RunResult failed = sweep.run(wc, mapcg, input, sweep.config(),
                                         obs::Json::object().set("dataset", d));
      if (failed.error)
        std::printf("  Word Count dataset #%d (%.1f MiB): FAILED (%s) — %s\n",
                    d, static_cast<double>(input.size()) / (1 << 20),
                    failed.error.kind_name(), failed.error.message.c_str());
      else
        std::printf("  Word Count dataset #%d: unexpectedly succeeded\n", d);
      // Ours processes the same input by iterating (SEPO).
      const RunResult ours = sepo.run(wc, input, sweep.config());
      std::printf("    ours: OK in %u iteration(s), %.3f ms\n",
                  ours.iterations, ours.sim_seconds * 1e3);
    }
  }
  return sweep.finish(table, "table2");
}
