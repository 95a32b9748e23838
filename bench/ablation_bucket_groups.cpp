// Ablation — bucket-group size (paper §IV-A).
//
// "While having several pages to allocate memory from improves the
// performance of the memory allocator, it increases the potential for
// memory fragmentation... Our hash table library, therefore, allows each
// application to balance this trade-off by adjusting the size of the bucket
// groups."
//
// Sweeps buckets_per_group for PVC and reports: allocator-lock distribution
// (fewer ops per allocator lock with more groups), fragmentation (bytes
// flushed vs bytes of live entries — partially-used pages waste the gap),
// SEPO iterations, and modelled time.
#include <cstdio>
#include <iostream>
#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "common/table_printer.hpp"

using namespace sepo;
using namespace sepo::apps;

int main() {
  std::printf("== Ablation: bucket-group size (allocator scalability vs "
              "fragmentation, paper §IV-A) ==\n\n");
  const AppInfo& pvc = *find_app("pvc");
  const Engine& sepo = *find_engine("sepo-gpu");
  // Twice dataset #4: the table exceeds the heap, so per-group active-page
  // fragmentation translates directly into extra iterations.
  const std::string input = pvc.generate(2 * table1_bytes("pvc", 4), 91);

  TablePrinter table({"buckets/group", "groups", "iterations", "table/heap",
                      "flushed pages", "sim time (ms)", "alloc fails"});
  for (const std::uint32_t bpg : {32u, 64u, 128u, 256u, 512u, 2048u, 8192u}) {
    EngineConfig cfg;
    cfg.gpu.buckets_per_group = bpg;
    const RunResult r = sepo.run(pvc, input, cfg);
    table.add_row(
        {TablePrinter::fmt_int(bpg),
         TablePrinter::fmt_int(cfg.gpu.num_buckets / bpg),
         TablePrinter::fmt_int(r.iterations),
         TablePrinter::fmt(static_cast<double>(r.table_bytes) /
                               static_cast<double>(r.heap_bytes),
                           2),
         TablePrinter::fmt_int(static_cast<long long>(r.stats.page_acquires)),
         TablePrinter::fmt(r.sim_seconds * 1e3, 3),
         TablePrinter::fmt_int(static_cast<long long>(r.stats.alloc_fails))});
  }
  table.print(std::cout);
  std::printf("\nexpected shape: many small groups distribute allocation "
              "load but strand free space in per-group active pages "
              "(fragmentation -> more iterations); very large groups "
              "concentrate allocations on few pages.\n");
  return 0;
}
