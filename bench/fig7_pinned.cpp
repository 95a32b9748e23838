// Figure 7 — "Speedups compared to the pinned version."
//
// §VI-D: the alternative system-level design allocates the allocator heap as
// a pinned CPU-memory region directly accessed by GPU threads over PCIe.
// For every application, dataset #4, this bench reports the speedup over the
// CPU baseline of (a) our SEPO hash table and (b) the pinned variant. The
// paper's finding: SEPO wins despite needing multiple iterations, and the
// pinned variant is often slower than the CPU itself because the table is
// accessed through "many small PCIe transactions". Figure 7 compares
// hash-table designs, so the MapReduce apps' map functions feed the same
// three tables (the sepo-gpu, cpu and pinned engines) as the standalone
// apps'.
//
//   fig7_pinned [--tiny] [--workers N] [--fault-* ...]
//               [--metrics-out=FILE] [--trace-out=FILE]
//
// The flags are the paper-table benches' shared set (bench/sweep.hpp);
// --tiny runs dataset #1. Exits 1 on any digest MISMATCH or failed run.
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
  bench::Sweep sweep("fig7_pinned", argc, argv);
  const int dataset = sweep.tiny() ? 1 : 4;
  std::printf("== Figure 7: SEPO vs pinned-in-CPU-memory hash table "
              "(dataset #%d; speedups relative to the CPU baseline) ==\n\n",
              dataset);

  const Engine& sepo = *find_engine("sepo-gpu");
  const Engine& cpu = *find_engine("cpu");
  const Engine& pinned = *find_engine("pinned");
  TablePrinter table({"app", "sepo speedup", "pinned speedup",
                      "pinned remote txns", "pinned remote bytes", "results"});
  int pinned_slower_than_cpu = 0;
  for (const char* key : {"netflix", "dna", "pvc", "ii", "wc", "pc", "geo"}) {
    const AppInfo& app = *find_app(key);
    const std::string input =
        app.generate(table1_bytes(app.table1_key(), dataset), 400);
    const obs::Json extra = obs::Json::object().set("dataset", dataset);
    const bench::Pair gpu =
        sweep.run_pair(app, sepo, cpu, input, sweep.config(), extra);
    const bench::Pair pin =
        sweep.run_against(app, pinned, gpu.ref, input, sweep.config(), extra);
    if (pin.speedup() < 1.0) ++pinned_slower_than_cpu;
    table.add_row({app.title, TablePrinter::fmt(gpu.speedup(), 2),
                   TablePrinter::fmt(pin.speedup(), 2),
                   TablePrinter::fmt_int(static_cast<long long>(
                       pin.run.pcie.remote_txns)),
                   TablePrinter::fmt_bytes(pin.run.pcie.remote_bytes),
                   gpu.ok() ? pin.verdict() : gpu.verdict()});
  }
  table.print(std::cout);
  std::printf("\n%d of 7 applications run SLOWER with the pinned table than "
              "on the CPU alone (paper: 4 of 7); the cause is the volume of "
              "small PCIe transactions, not raw byte count.\n",
              pinned_slower_than_cpu);
  return sweep.finish(table, "fig7");
}
