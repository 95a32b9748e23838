#include "baselines/phoenix.hpp"

#include <stdexcept>

#include "common/strings.hpp"

namespace sepo::baselines {

PhoenixRuntime::PhoenixRuntime(gpusim::ThreadPool& pool,
                               gpusim::RunStats& stats, PhoenixConfig cfg)
    : pool_(pool), stats_(stats), cfg_(cfg) {
  if (cfg_.num_threads == 0)
    throw std::invalid_argument("num_threads must be positive");
}

std::unique_ptr<ChainedHostTable> PhoenixRuntime::run(
    std::string_view input, const mapreduce::MrSpec& spec) {
  if (!spec.map) throw std::invalid_argument("spec.map is required");
  if (spec.mode == mapreduce::Mode::kMapReduce && spec.combine == nullptr)
    throw std::invalid_argument("MAP_REDUCE mode requires spec.combine");

  const RecordIndex index = index_lines(input);
  const core::Organization org = spec.mode == mapreduce::Mode::kMapReduce
                                     ? core::Organization::kCombining
                                     : core::Organization::kMultiValued;

  // --- map phase: per-thread private containers ---
  std::vector<std::unique_ptr<ChainedHostTable>> locals(cfg_.num_threads);
  for (auto& t : locals)
    t = std::make_unique<ChainedHostTable>(
        stats_, ChainedHostTableConfig{.org = org,
                                       .num_buckets = cfg_.thread_table_buckets,
                                       .combiner = spec.combine});

  const std::size_t n = index.size();
  pool_.run_parties(cfg_.num_threads, [&](std::size_t party) {
    const std::size_t lo = n * party / cfg_.num_threads;
    const std::size_t hi = n * (party + 1) / cfg_.num_threads;
    ChainedHostEmitter em(*locals[party], static_cast<std::uint32_t>(party));
    for (std::size_t r = lo; r < hi; ++r) {
      const std::string_view body = index.record(input.data(), r);
      stats_.add_work_units(body.size());
      spec.map(body, em);
      stats_.add_records_processed();
    }
  });

  // --- merge phase: fold per-thread containers into the final table ---
  auto merged = std::make_unique<ChainedHostTable>(
      stats_, ChainedHostTableConfig{.org = org,
                                     .num_buckets = cfg_.merged_table_buckets,
                                     .combiner = spec.combine});

  if (org == core::Organization::kCombining) {
    for (std::uint32_t t = 0; t < cfg_.num_threads; ++t)
      locals[t]->for_each([&](std::string_view k,
                              std::span<const std::byte> v) {
        merged->insert(t, k, v);
      });
  } else {
    for (std::uint32_t t = 0; t < cfg_.num_threads; ++t)
      locals[t]->for_each_group(
          [&](std::string_view k,
              const std::vector<std::span<const std::byte>>& vals) {
            for (const auto& v : vals) merged->insert(t, k, v);
          });
  }
  return merged;
}

}  // namespace sepo::baselines
