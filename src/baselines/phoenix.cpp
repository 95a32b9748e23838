#include "baselines/phoenix.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strings.hpp"
#include "gpusim/worker_id.hpp"

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

  // --- merge phase: fold the per-thread containers into the final table,
  // one residue range per pool task (see the header) ---
  auto merged = std::make_unique<ChainedHostTable>(
      stats_, ChainedHostTableConfig{.org = org,
                                     .num_buckets = cfg_.merged_table_buckets,
                                     .combiner = spec.combine});
  const std::uint32_t local_buckets = cfg_.thread_table_buckets;
  const std::uint32_t m = std::min(local_buckets, cfg_.merged_table_buckets);
  core::for_each_bucket_range(
      pool_, m, [&](std::size_t, std::size_t lo, std::size_t hi) {
        const auto tid =
            static_cast<std::uint32_t>(gpusim::current_worker_index());
        const auto insert = [&](std::string_view k,
                                std::span<const std::byte> v) {
          merged->insert(tid, k, v);
        };
        std::vector<std::span<const std::byte>> vals;
        for (const auto& local : locals)
          for (std::uint32_t base = 0; base < local_buckets; base += m)
            for (auto b = static_cast<std::uint32_t>(base + lo); b < base + hi;
                 ++b) {
              if (org == core::Organization::kCombining)
                local->for_each_in(b, insert);
              else
                local->for_each_group_in(
                    b, vals, [&](std::string_view k, const auto& vs) {
                      for (const auto& v : vs) insert(k, v);
                    });
            }
      });
  return merged;
}

}  // namespace sepo::baselines
