// Inverted Index end-to-end — the multi-valued organization (paper §IV-B,
// Figure 3): a 1:N mapping from hyperlinks to the pages containing them.
//
// Demonstrates key/value page separation, resident key pages across SEPO
// iterations, and group queries on the finished host table.
//
// Usage: inverted_index [input_megabytes]    (default 3)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/harness.hpp"
#include "apps/standalone_app.hpp"
#include "bigkernel/pipeline.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "mapreduce/sepo_emitter.hpp"

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

  apps::InvertedIndexApp app;
  std::printf("generating ~%.1f MiB of HTML pages...\n", mb);
  const std::string input =
      app.generate(static_cast<std::size_t>(mb * 1024 * 1024), /*seed=*/7);

  // Assemble the pipeline by hand (the sepo-gpu engine's run does exactly
  // this) to show the moving parts.
  gpusim::Device device(4u << 20);
  gpusim::ThreadPool pool;
  gpusim::RunStats stats;
  gpusim::ExecContext ctx(device, pool, stats);

  const RecordIndex index = index_lines(input);
  bigkernel::InputPipeline pipe(
      ctx, apps::choose_chunking(index, apps::GpuConfig{}));

  core::HashTableConfig tcfg;
  tcfg.org = core::Organization::kMultiValued;  // <link, [pages...]>
  tcfg.num_buckets = 1u << 14;
  tcfg.buckets_per_group = 512;
  tcfg.page_size = 8u << 10;
  core::SepoHashTable table(ctx, tcfg);

  // Emits <href, pagePath> per link; records whose emits are postponed are
  // re-executed in later SEPO iterations.
  const core::DriverResult res = mapreduce::run_sepo_job(
      table, pipe, input, index,
      [&](std::string_view body, mapreduce::Emitter& em) {
        app.map_record(body, em);
      });

  const core::HostTable host = table.finalize();
  std::printf("\n  pages indexed    : %zu\n", index.size());
  std::printf("  SEPO iterations  : %u\n", res.iterations);
  std::printf("  distinct links   : %zu\n", host.entry_count());
  std::printf("  link occurrences : %zu\n", host.value_count());
  std::printf("  table size       : %.2f MiB (heap %.2f MiB)\n",
              static_cast<double>(table.table_stats().table_bytes) / (1 << 20),
              static_cast<double>(table.page_pool().heap_bytes()) / (1 << 20));

  // Show one group, Figure-3 style.
  std::size_t shown = 0;
  host.for_each_group([&](std::string_view link,
                          const std::vector<std::span<const std::byte>>& pages) {
    if (shown++ != 0 || pages.size() < 3) {
      if (pages.size() < 3) --shown;
      return;
    }
    std::printf("\n  example group: %.*s is linked from %zu pages:\n",
                static_cast<int>(link.size()), link.data(), pages.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(3, pages.size()); ++i)
      std::printf("    - %.*s\n", static_cast<int>(pages[i].size()),
                  reinterpret_cast<const char*>(pages[i].data()));
  });
  return 0;
}
