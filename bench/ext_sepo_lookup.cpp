// Extension bench — SEPO lookups on a larger-than-memory table (the §IV-C
// "mental exercise", implemented in core/sepo_lookup.hpp).
//
// Phase 1 builds a PVC table several times larger than the lookup device;
// phase 2 answers query batches two ways:
//   * SEPO segments: stage bucket ranges into device memory in bulky
//     transfers; postpone queries for non-resident portions;
//   * remote probes (the pinned-memory §VI-D alternative applied to
//     lookups): leave the table in host memory and dereference every chain
//     entry across the bus.
// The crossover mirrors the insert-side story: per-byte bulk staging beats
// per-entry small transactions as soon as queries share segments.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/harness.hpp"
#include "apps/standalone_app.hpp"
#include "common/random.hpp"
#include "common/strings.hpp"
#include "common/table_printer.hpp"
#include "core/hash_table.hpp"
#include "core/sepo_lookup.hpp"
#include "gpusim/cost_model.hpp"
#include "mapreduce/sepo_emitter.hpp"

using namespace sepo;
using namespace sepo::apps;

int main() {
  std::printf("== Extension: SEPO lookups on a larger-than-memory table "
              "(paper §IV-C mental exercise) ==\n\n");

  // Phase 1: build the table with the regular insert path.
  PageViewCountApp pvc;
  const std::string input = pvc.generate(table1_bytes("pvc", 4), 321);
  gpusim::Device build_dev(4u << 20);
  gpusim::ThreadPool pool;
  gpusim::RunStats build_stats;
  gpusim::ExecContext build_ctx(build_dev, pool, build_stats);
  const RecordIndex idx = index_lines(input);
  bigkernel::InputPipeline pipe(build_ctx, choose_chunking(idx, GpuConfig{}));
  core::HashTableConfig tcfg;
  tcfg.combiner = core::combine_sum_u64;
  core::SepoHashTable ht(build_ctx, tcfg);
  (void)mapreduce::run_sepo_job(
      ht, pipe, input, idx,
      [&](std::string_view body, mapreduce::Emitter& em) {
        pvc.map_record(body, em);
      });
  const core::HostTable table = ht.finalize();
  std::printf("table: %zu keys, %s serialized\n", table.entry_count(),
              TablePrinter::fmt_bytes(ht.table_stats().table_bytes).c_str());

  // Phase 2: query batches of growing size, on a device ~1/8 the table.
  TablePrinter out({"queries", "segments staged", "staged bytes",
                    "sepo lookup (ms)", "remote probes (ms)", "sepo wins"});
  Rng rng(11);
  // Reuse real keys for ~2/3 of queries.
  std::vector<std::string> universe;
  table.for_each([&](std::string_view k, std::span<const std::byte>) {
    if (universe.size() < 40000) universe.emplace_back(k);
  });

  for (const std::size_t batch : {100u, 1000u, 10000u, 40000u}) {
    gpusim::Device dev(512u << 10);
    gpusim::RunStats stats;
    gpusim::ExecContext ctx(dev, pool, stats);
    core::SepoLookupEngine engine(ctx, table);

    std::vector<std::string> queries;
    queries.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      if (rng.chance(0.67))
        queries.push_back(universe[rng.below(universe.size())]);
      else
        queries.push_back("http://missing.example.com/" + std::to_string(i));
    }
    std::vector<std::optional<std::vector<std::byte>>> answers;
    const core::LookupBatchResult res = engine.lookup_values(queries, answers);

    const double sepo_time = ctx.timeline().total_end();

    // Remote-probe alternative: each chain entry visited is one small PCIe
    // transaction (header + key), plus the answer readback.
    gpusim::Device rdev(512u << 10);
    gpusim::RunStats rstats;
    std::uint64_t found = 0;
    for (const auto& q : queries) {
      rstats.add_hash_ops();
      const std::uint32_t b = static_cast<std::uint32_t>(hash_key(q)) &
                              static_cast<std::uint32_t>(table.bucket_count() - 1);
      for (core::HostPtr p = table.bucket_head(b); p != alloc::kHostNull;) {
        const auto* e = table.heap().ptr<core::KvEntry>(p);
        rstats.add_chain_links();
        rdev.bus().remote(sizeof(core::KvEntry) + e->key_len);
        if (e->key() == q) {
          rdev.bus().remote(e->val_len);
          ++found;
          break;
        }
        p = e->next_host;
      }
    }
    // The probes serialize with the issuing warps: compute, then the remote
    // traffic, priced as the timeline prices a kernel's remote batch.
    const gpusim::PcieSnapshot rbus = rdev.bus().snapshot();
    const double remote_time =
        gpusim::compute_time(gpusim::kGpuDesc, rstats.snapshot()) +
        rdev.bus().params().remote_time(rbus.remote_bytes, rbus.remote_txns);

    out.add_row({TablePrinter::fmt_int(static_cast<long long>(batch)),
                 TablePrinter::fmt_int(res.iterations),
                 TablePrinter::fmt_bytes(res.staged_bytes),
                 TablePrinter::fmt(sepo_time * 1e3, 3),
                 TablePrinter::fmt(remote_time * 1e3, 3),
                 sepo_time < remote_time ? "yes" : "no"});
  }
  out.print(std::cout);
  std::printf(
      "\nexpected shape: tiny batches favor remote probes (staging a segment "
      "for one query is wasteful); as batches grow, queries amortize segment "
      "staging and SEPO lookups win by an increasing margin — the same "
      "bulky-vs-small-transaction economics as the insert path (Fig. 7).\n");
  return 0;
}
