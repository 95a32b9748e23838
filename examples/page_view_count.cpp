// Page View Count end-to-end — the paper's running example (§III-B).
//
// Generates a synthetic web log, counts URL hits on the virtual GPU with the
// SEPO hash table (combining organization), then cross-checks the result
// against the multi-threaded CPU baseline and prints the most-viewed pages.
//
// Usage: page_view_count [input_megabytes]    (default 4)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/engine.hpp"
#include "baselines/chained_host_table.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"

int main(int argc, char** argv) {
  using namespace sepo;
  double mb = 4.0;
  if (argc > 1) {
    const auto parsed = parse_number<double>(argv[1]);
    if (!parsed) {
      std::fprintf(stderr, "invalid input_megabytes: '%s'\n", argv[1]);
      return 1;
    }
    mb = *parsed;
  }

  // Resolve the app and both implementations through the engine registry —
  // the same seam sepo_cli and the benches dispatch through.
  const apps::AppInfo& app = *apps::find_app("pvc");
  std::printf("generating ~%.1f MiB of web log...\n", mb);
  const std::string input =
      app.generate(static_cast<std::size_t>(mb * 1024 * 1024), /*seed=*/2024);

  std::printf("running on the SEPO virtual GPU (4 MiB device)...\n");
  const apps::RunResult gpu = apps::find_engine("sepo-gpu")->run(app, input, {});
  std::printf("running the CPU multi-threaded baseline...\n");
  const apps::RunResult cpu = apps::find_engine("cpu")->run(app, input, {});

  std::printf("\n  SEPO iterations : %u\n", gpu.iterations);
  std::printf("  distinct URLs   : %llu\n",
              static_cast<unsigned long long>(gpu.keys));
  std::printf("  table size      : %.2f MiB (device heap: %.2f MiB)\n",
              static_cast<double>(gpu.table_bytes) / (1 << 20),
              static_cast<double>(gpu.heap_bytes) / (1 << 20));
  std::printf("  simulated time  : GPU %.3f ms, CPU %.3f ms -> speedup %.2f\n",
              gpu.sim_seconds * 1e3, cpu.sim_seconds * 1e3,
              cpu.sim_seconds / gpu.sim_seconds);
  std::printf("  results         : %s\n",
              gpu.checksum == cpu.checksum ? "GPU == CPU (checksums match)"
                                           : "MISMATCH");

  // Top pages, read from the CPU baseline table (any of the two would do —
  // we just validated they agree).
  gpusim::RunStats stats;
  baselines::ChainedHostTable table(stats,
                                    {.combiner = core::combine_sum_u64});
  {
    // Reuse the app's parser through the table's emitter.
    baselines::ChainedHostEmitter em(table, /*tid=*/0);
    const RecordIndex idx = index_lines(input);
    for (std::size_t i = 0; i < idx.size(); ++i)
      app.map(idx.record(input.data(), i), em);
  }
  std::vector<std::pair<std::uint64_t, std::string>> top;
  table.for_each([&](std::string_view k, std::span<const std::byte> v) {
    std::uint64_t count = 0;
    std::memcpy(&count, v.data(), std::min<std::size_t>(8, v.size()));
    top.emplace_back(count, std::string(k));
  });
  std::partial_sort(top.begin(), top.begin() + std::min<std::size_t>(5, top.size()),
                    top.end(), std::greater<>());
  std::printf("\n  top pages:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size()); ++i)
    std::printf("    %8llu  %s\n",
                static_cast<unsigned long long>(top[i].first),
                top[i].second.c_str());
  return 0;
}
