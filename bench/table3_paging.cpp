// Table III — "Calculated lower bound data transfer time if PVC was run on a
// demand paging-equipped hardware compared to the total execution time when
// PVC is run using our hash table."
//
// Methodology reproduced from §VI-D: instrument PVC's hash-table access
// pattern, replay the trace through an LRU page-cache simulation for a grid
// of (assumed physical GPU memory, page size), convert replacement counts to
// PCIe transfer time (bandwidth only — it is a lower bound), and set the
// result against the *total* execution time of PVC on our SEPO hash table
// with a heap of the same size.
//
// Scaling: page sizes are hardware constants (4 KB / 128 KB / 1 MB cannot
// shrink with the table), so this experiment runs at a larger scale than
// the other benches: the table is ~1/25 of the paper's 1.2 GB (≈48 MB) and
// the "assumed physical GPU memory" column keeps the paper's 400..1200
// labels, each scaled-MB being table_bytes/1200 real bytes. All
// memory-to-table ratios and real page sizes match the paper's grid.
//
//   table3_paging [--tiny] [--workers N] [--fault-* ...]
//                 [--metrics-out=FILE] [--trace-out=FILE]
//
// The flags are the paper-table benches' shared set (bench/sweep.hpp). The
// SEPO column runs PVC on the sepo-gpu engine, and every row's digest is
// checked against the first row's, where the table fits in memory; the
// metrics carry each SEPO run plus the paging lower bounds per memory size.
// --tiny runs the experiment at 1/32 scale on three memory sizes. Exits 1 on
// any digest MISMATCH or failed SEPO run.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "baselines/paging_sim.hpp"
#include "common/strings.hpp"
#include "common/table_printer.hpp"
#include "gpusim/pcie.hpp"
#include "sweep.hpp"

using namespace sepo;
using namespace sepo::apps;

int main(int argc, char** argv) {
  bench::Sweep sweep("table3_paging", argc, argv);
  // --tiny divides the input, the URL tail and every SEPO size alike; the
  // paging columns' page sizes are hardware constants and stay.
  const std::size_t scale = sweep.tiny() ? 32 : 1;

  std::printf("== Table III: demand-paging lower-bound transfer time vs SEPO "
              "total execution time (PVC) ==\n\n");

  // PVC input sized so the populated table reaches ~1/25 of the paper's
  // 1.2 GB. A deep URL tail (weak skew) keeps page locality realistic.
  const AppInfo& pvc = *find_app("pvc");
  const std::string input = gen_weblog(
      {.target_bytes = (110u << 20) / scale, .seed = 55},
      /*distinct_urls=*/1500000 / scale, /*zipf_s=*/0.8);

  // 1) Record the access trace with the instrumented table.
  baselines::TracedCombiningTable traced(
      static_cast<std::uint32_t>((1u << 19) / scale));
  baselines::TraceEmitter em(traced);
  const RecordIndex idx = index_lines(input);
  for (std::size_t i = 0; i < idx.size(); ++i)
    pvc.map(idx.record(input.data(), i), em);

  const std::uint64_t table_bytes = traced.table_bytes();
  // One scaled-MB; the margin makes the 1200 row hold the entire table with
  // page-boundary slack ("so that the entire hash table fits in GPU memory
  // and no paging is required"), as in the paper.
  const std::uint64_t unit = (table_bytes + (2u << 20) / scale) / 1200;
  std::printf("traced PVC table: %.1f MiB real (%zu entries, %zu accesses); "
              "1 scaled-MB = %llu bytes\n\n",
              static_cast<double>(table_bytes) / (1 << 20),
              traced.entry_count(), traced.trace().size(),
              static_cast<unsigned long long>(unit));

  const gpusim::PcieBus bus;  // same PCIe model used everywhere
  const std::uint64_t page_sizes[3] = {1u << 20, 128u << 10, 4u << 10};

  TablePrinter table({"assumed GPU mem (scaled MB)", "xfer time (1MB pages)",
                      "xfer time (128KB pages)", "xfer time (4KB pages)",
                      "SEPO total exec time"});

  const Engine& sepo = *find_engine("sepo-gpu");
  std::optional<RunResult> fits;  // the first row's run: the table fits
  for (int mem_mb = 1200; mem_mb >= 400; mem_mb -= sweep.tiny() ? 400 : 100) {
    const std::uint64_t mem_bytes = static_cast<std::uint64_t>(mem_mb) * unit;

    std::string cells[3];
    obs::Json paging = obs::Json::object();
    for (int c = 0; c < 3; ++c) {
      const auto res =
          baselines::simulate_lru(traced.trace(), page_sizes[c], mem_bytes);
      // Bandwidth-only lower bound, as in the paper.
      const double t = static_cast<double>(res.bytes_transferred) /
                       bus.params().bandwidth_bytes_per_s;
      cells[c] = TablePrinter::fmt(t, 3) + " s";
      obs::Json col = obs::Json::object();
      col.set("page_bytes", page_sizes[c]);
      col.set("bytes_transferred", res.bytes_transferred);
      col.set("xfer_lower_bound_seconds", t);
      paging.set("page_" + std::to_string(page_sizes[c] >> 10) + "k",
                 std::move(col));
    }

    // SEPO total execution time with a heap pinned to the same size.
    EngineConfig cfg = sweep.config();
    cfg.gpu.device_bytes = (96u << 20) / scale;
    cfg.gpu.heap_bytes = mem_bytes;
    cfg.gpu.page_size = (64u << 10) / scale;
    cfg.gpu.num_buckets = static_cast<std::uint32_t>((1u << 18) / scale);
    cfg.gpu.buckets_per_group =
        static_cast<std::uint32_t>((1u << 13) / scale);
    cfg.gpu.target_chunk_bytes = (2u << 20) / scale;
    obs::Json extra = obs::Json::object();
    extra.set("assumed_mem_scaled_mb", mem_mb);
    extra.set("assumed_mem_bytes", mem_bytes);
    extra.set("paging_lower_bounds", std::move(paging));
    RunResult r;
    if (fits) {
      r = sweep.run_against(pvc, sepo, *fits, input, cfg, extra).run;
    } else {
      r = sweep.run(pvc, sepo, input, cfg, extra);
      fits = r;
    }
    table.add_row({TablePrinter::fmt_int(mem_mb), cells[0], cells[1], cells[2],
                   TablePrinter::fmt(r.sim_seconds, 3) + " s (" +
                       std::to_string(r.iterations) + " iters)"});
  }
  table.print(std::cout);
  sweep.report().set_field("traced_table_bytes", table_bytes);
  sweep.report().set_field("scaled_mb_bytes", unit);
  std::printf(
      "\npaper shape: the transfer lower bound explodes with page size and "
      "with shrinking memory (1 MB pages: 14.8 s -> 2148 s); SEPO's own time "
      "degrades gracefully (1.22 s -> 2.02 s) and beats demand paging in all "
      "cases where the table is ~1.5x memory or more.\n");
  return sweep.finish(table, "table3");
}
