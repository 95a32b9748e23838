// Ablation — BigKernel chunk size (the input-pipeline substrate, §V / [10]).
//
// Small chunks pay per-transfer latency and per-kernel-launch overhead many
// times over; large chunks amortize both but claim more device memory for
// staging (shrinking the heap) and coarsen the skip-done-chunks
// optimization on later SEPO iterations. The sweep runs PVC dataset #4.
#include <cstdio>
#include <iostream>
#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "common/table_printer.hpp"

using namespace sepo;
using namespace sepo::apps;

int main() {
  std::printf("== Ablation: BigKernel chunk size (input staging pipeline) "
              "==\n\n");
  const AppInfo& pvc = *find_app("pvc");
  const Engine& sepo = *find_engine("sepo-gpu");
  const std::string input = pvc.generate(table1_bytes("pvc", 4), 95);

  TablePrinter table({"target chunk", "h2d txns", "kernel launches",
                      "iterations", "heap (MiB)", "sim time (ms)"});
  for (const std::size_t chunk_kb : {4u, 16u, 64u, 224u, 448u}) {
    EngineConfig cfg;
    cfg.gpu.target_chunk_bytes = chunk_kb << 10;
    const RunResult r = sepo.run(pvc, input, cfg);
    table.add_row(
        {TablePrinter::fmt_bytes(chunk_kb << 10),
         TablePrinter::fmt_int(static_cast<long long>(r.pcie.h2d_txns)),
         TablePrinter::fmt_int(static_cast<long long>(r.stats.kernel_launches)),
         TablePrinter::fmt_int(r.iterations),
         TablePrinter::fmt(static_cast<double>(r.heap_bytes) / (1 << 20), 2),
         TablePrinter::fmt(r.sim_seconds * 1e3, 3)});
  }
  table.print(std::cout);
  std::printf("\nexpected shape: tiny chunks multiply PCIe transactions and "
              "kernel launches (latency-bound); beyond ~100-200 KiB the "
              "curve flattens while the staging ring starts eating into the "
              "heap (more SEPO iterations on larger tables).\n");
  return 0;
}
