// Word Count on the MapReduce runtime (paper §V) — MAP_REDUCE mode.
//
// The runtime stages input through BigKernel, runs map instances on the
// virtual GPU, and uses the SEPO hash table in the combining organization
// with the user's reduce/combine callback ("the reduce phase is embedded
// into the map phase"). Compared against the Phoenix++-style CPU runtime.
//
// Usage: wordcount_mapreduce [input_megabytes]    (default 2)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/engine.hpp"
#include "common/parse.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "mapreduce/runtime.hpp"

int main(int argc, char** argv) {
  using namespace sepo;
  double mb = 2.0;
  if (argc > 1) {
    const auto parsed = parse_number<double>(argv[1]);
    if (!parsed) {
      std::fprintf(stderr, "invalid input_megabytes: '%s'\n", argv[1]);
      return 1;
    }
    mb = *parsed;
  }

  const apps::AppInfo& wc = *apps::find_app("wc");
  std::printf("generating ~%.1f MiB of text...\n", mb);
  const std::string input =
      wc.generate(static_cast<std::size_t>(mb * 1024 * 1024), /*seed=*/99);

  // --- registry-dispatched comparison: our runtime vs Phoenix++ ---
  const apps::RunResult gpu = apps::find_engine("sepo-mr")->run(wc, input, {});
  const apps::RunResult cpu = apps::find_engine("phoenix")->run(wc, input, {});
  std::printf("GPU MapReduce: %u SEPO iteration(s), %llu distinct words\n",
              gpu.iterations, static_cast<unsigned long long>(gpu.keys));
  std::printf("Phoenix (CPU): %llu distinct words\n",
              static_cast<unsigned long long>(cpu.keys));
  std::printf("result digests: %s\n",
              gpu.checksum == cpu.checksum ? "match" : "MISMATCH");

  // --- the low-level runtime API, for direct access to the final table ---
  gpusim::Device device(4u << 20);
  gpusim::ThreadPool pool;
  gpusim::RunStats stats;
  gpusim::ExecContext ctx(device, pool, stats);
  mapreduce::RuntimeConfig rcfg;
  // Size the staging ring to the input's record lengths and the device.
  rcfg.pipeline = apps::choose_chunking(index_lines(input), apps::GpuConfig{});
  mapreduce::MapReduceRuntime runtime(ctx, rcfg);
  const mapreduce::RunOutcome out = runtime.run(input, wc.mr->spec());

  // Top words.
  std::vector<std::pair<std::uint64_t, std::string>> top;
  out.table->for_each([&](std::string_view k, std::span<const std::byte> v) {
    std::uint64_t c = 0;
    std::memcpy(&c, v.data(), 8);
    top.emplace_back(c, std::string(k));
  });
  std::partial_sort(top.begin(),
                    top.begin() + std::min<std::size_t>(8, top.size()),
                    top.end(), std::greater<>());
  std::printf("\ntop words:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, top.size()); ++i)
    std::printf("  %8llu  %s\n", static_cast<unsigned long long>(top[i].first),
                top[i].second.c_str());
  return 0;
}
