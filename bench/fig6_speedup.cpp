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
// The flags are the paper-table benches' shared set (bench/sweep.hpp).
// --tiny restricts to dataset #1 (the ctest metrics fixture uses it); the
// chaos fixture runs it under --fault-* transfer faults, where the SEPO
// result must still digest-match the CPU baseline. Exits 1 on any digest
// MISMATCH or failed run.
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
  bench::Sweep sweep("fig6_speedup", argc, argv);
  const int max_dataset = sweep.tiny() ? 1 : 4;

  std::printf("== Figure 6: speedup over CPU multi-threaded baseline "
              "(MapReduce apps: over Phoenix++) ==\n");
  std::printf("   datasets: paper Table I scaled 1:1000 (GB -> MB); device: "
              "4 MiB (~1:1000 of the usable GTX 780ti capacity)%s\n\n",
              sweep.tiny() ? "; --tiny: dataset #1 only" : "");

  TablePrinter table({"app", "dataset", "input", "iterations", "table/heap",
                      "gpu sim (ms)", "cpu sim (ms)", "speedup", "results"});
  double sum_speedup = 0;
  int bars = 0;
  // The figure's bar order, not the registry's display order. One bar is
  // the SEPO engine for the app's kind against its reference baseline.
  for (const char* key : {"netflix", "dna", "pvc", "ii", "wc", "pc", "geo"}) {
    const AppInfo& app = *find_app(key);
    for (int d = 1; d <= max_dataset; ++d) {
      // Seeds stay per kind (1000+d standalone, 2000+d MapReduce), so the
      // inputs, and the committed BENCH_fig6.json, stay the same.
      const std::string input =
          app.generate(table1_bytes(app.table1_key(), d),
                       (app.is_mapreduce() ? 2000 : 1000) + d);
      const bench::Pair p = sweep.run_pair(
          app, *resolve_engine("gpu", app), *baseline_engine(app), input,
          sweep.config(),
          obs::Json::object().set("dataset", d).set(
              "input_bytes", static_cast<std::uint64_t>(input.size())));
      sum_speedup += p.speedup();
      ++bars;
      table.add_row(
          {app.title, "#" + std::to_string(d),
           TablePrinter::fmt_bytes(input.size()),
           TablePrinter::fmt_int(p.run.iterations),
           TablePrinter::fmt(static_cast<double>(p.run.table_bytes) /
                                 static_cast<double>(p.run.heap_bytes),
                             2),
           TablePrinter::fmt(p.run.sim_seconds * 1e3, 3),
           TablePrinter::fmt(p.ref.sim_seconds * 1e3, 3),
           TablePrinter::fmt(p.speedup(), 2), p.verdict()});
    }
  }
  table.print(std::cout);
  const double average = sum_speedup / bars;
  std::printf("\naverage speedup: %.2f (paper reports 3.5 on average)\n",
              average);
  std::printf("paper shape: Inverted Index and Word Count do not perform "
              "well (divergence / lock contention); others see clear "
              "speedups; iteration counts rise with dataset size.\n");

  sweep.report().set_field("tiny", sweep.tiny());
  sweep.report().set_field("average_speedup", average);
  return sweep.finish(table, "fig6");
}
