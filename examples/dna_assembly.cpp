// DNA assembly end-to-end: both phases of the paper's most demanding app.
//
// Phase 1 (the paper's §VI-A workload): build the k-mer -> extension-edge
// table on the virtual GPU with the SEPO hash table; the table grows to
// several times the device heap.
//
// Phase 2 (the paper's §IV-C "mental exercise", implemented in
// core/sepo_lookup.hpp): walk contigs through the larger-than-memory table
// with SEPO *lookups* — unique-extension chains are followed Meraculous-
// style, batching the next-kmer queries so segment staging is amortized.
//
// Usage: dna_assembly [input_megabytes]    (default 3)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "apps/standalone_app.hpp"
#include "bigkernel/pipeline.hpp"
#include "common/parse.hpp"
#include "core/sepo_lookup.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "mapreduce/sepo_emitter.hpp"

namespace {
constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
}

int main(int argc, char** argv) {
  using namespace sepo;
  double mb = 3.0;
  if (argc > 1) {
    const auto parsed = parse_number<double>(argv[1]);
    if (!parsed) {
      std::fprintf(stderr, "invalid input_megabytes: '%s'\n", argv[1]);
      return 1;
    }
    mb = *parsed;
  }

  apps::DnaAssemblyApp app;
  std::printf("generating ~%.1f MiB of reads...\n", mb);
  const std::string input =
      app.generate(static_cast<std::size_t>(mb * 1024 * 1024), /*seed=*/12);

  // ---- phase 1: k-mer spectrum with extension edges ----
  gpusim::Device dev(4u << 20);
  gpusim::ThreadPool pool;
  gpusim::RunStats stats;
  gpusim::ExecContext ctx(dev, pool, stats);
  const RecordIndex idx = index_lines(input);
  bigkernel::InputPipeline pipe(ctx,
                                apps::choose_chunking(idx, apps::GpuConfig{}));
  core::HashTableConfig tcfg;
  tcfg.combiner = app.combiner();
  core::SepoHashTable table(ctx, tcfg);
  const core::DriverResult res = mapreduce::run_sepo_job(
      table, pipe, input, idx,
      [&](std::string_view body, mapreduce::Emitter& em) {
        app.map_record(body, em);
      });
  const core::HostTable kmers = table.finalize();
  std::printf("phase 1: %zu distinct %zu-mers in %u SEPO iterations, "
              "table %.2f MiB vs heap %.2f MiB\n",
              kmers.entry_count(), apps::DnaAssemblyApp::kK, res.iterations,
              static_cast<double>(table.table_stats().table_bytes) / (1 << 20),
              static_cast<double>(table.page_pool().heap_bytes()) / (1 << 20));

  // ---- phase 2: contig walking via SEPO lookups ----
  // A k-mer with exactly one successor edge extends a contig; walk forward
  // from seed k-mers until the extension is ambiguous or absent. Lookups go
  // through a (smaller) device in segment-staged batches.
  gpusim::Device lookup_dev(1u << 20);
  gpusim::RunStats lookup_stats;
  gpusim::ExecContext lookup_ctx(lookup_dev, pool, lookup_stats);
  core::SepoLookupEngine engine(lookup_ctx, kmers);
  std::printf("phase 2: lookup engine with %u segments over %.2f MiB\n",
              engine.segment_count(),
              static_cast<double>(engine.serialized_bytes()) / (1 << 20));

  // Seeds: a sample of k-mers.
  std::vector<std::string> frontier;
  kmers.for_each([&](std::string_view k, std::span<const std::byte>) {
    if (frontier.size() < 2000 && (hash_key(k) & 15) == 0)
      frontier.emplace_back(k);
  });
  std::vector<std::string> contigs(frontier.begin(), frontier.end());

  std::size_t total_lookups = 0, rounds = 0;
  std::vector<bool> active(frontier.size(), true);
  for (int round = 0; round < 64; ++round) {
    // Batch the frontier's next-kmer queries (this is what makes SEPO
    // lookups efficient: one staging pass answers the whole frontier).
    std::vector<std::string> queries;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (!active[i]) continue;
      queries.push_back(frontier[i]);
      owner.push_back(i);
    }
    if (queries.empty()) break;
    ++rounds;
    total_lookups += queries.size();
    std::vector<std::optional<std::vector<std::byte>>> answers;
    (void)engine.lookup_values(queries, answers);

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::size_t i = owner[q];
      if (!answers[q] || answers[q]->size() < 4) {
        active[i] = false;
        continue;
      }
      std::uint32_t edges = 0;
      std::memcpy(&edges, answers[q]->data(), 4);
      const std::uint32_t next = (edges >> 4) & 0xF;  // successor-base bits
      if (std::popcount(next) != 1) {  // ambiguous or dead end
        active[i] = false;
        continue;
      }
      const char base = kBases[std::countr_zero(next)];
      contigs[i].push_back(base);
      frontier[i] = contigs[i].substr(contigs[i].size() -
                                      apps::DnaAssemblyApp::kK);
    }
  }

  std::size_t longest = 0, extended = 0;
  for (const auto& c : contigs) {
    longest = std::max(longest, c.size());
    if (c.size() > apps::DnaAssemblyApp::kK) ++extended;
  }
  std::printf("phase 2: %zu seeds, %zu extended into contigs, longest %zu bp; "
              "%zu lookups in %zu batched rounds\n",
              contigs.size(), extended, longest, total_lookups, rounds);
  std::printf("lookup bus traffic: %.2f MiB staged in %llu bulk transfers\n",
              static_cast<double>(lookup_dev.bus().snapshot().h2d_bytes) /
                  (1 << 20),
              static_cast<unsigned long long>(
                  lookup_dev.bus().snapshot().h2d_txns));
  return 0;
}
