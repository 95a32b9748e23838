// Tests for the SEPO model helpers (§III-A profitability condition) and the
// multi-valued resident-key machinery, including the livelock valve
// regression (DESIGN.md "resident-key cap").
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "core/sepo.hpp"
#include "core/sepo_driver.hpp"
#include "common/random.hpp"
#include "test_util.hpp"

namespace sepo::core {
namespace {

using test::Rig;

TEST(SepoConditionTest, PostponingProfitableWhenServiceGetsMuchCheaper) {
  // Figure 1: paying pre-computation twice + postponement bookkeeping is
  // worth it when the postponed service is far cheaper.
  SepoCosts c;
  c.pre_computation = 1;
  c.postpone = 0.1;
  c.postponed_service = 1;
  c.inefficient_service = 10;
  c.post_computation = 1;
  EXPECT_TRUE(postponement_profitable(c));
}

TEST(SepoConditionTest, NotProfitableWhenServiceCostsAreClose) {
  SepoCosts c;
  c.pre_computation = 1;
  c.postpone = 0.1;
  c.postponed_service = 9;
  c.inefficient_service = 10;
  c.post_computation = 1;
  EXPECT_FALSE(postponement_profitable(c));
}

TEST(SepoConditionTest, BreakEvenBoundary) {
  // with_sepo = 2*pre + postpone + postponed + post
  // without    = pre + inefficient + post
  // equal when inefficient = pre + postpone + postponed.
  SepoCosts c;
  c.pre_computation = 2;
  c.postpone = 0.5;
  c.postponed_service = 3;
  c.post_computation = 1;
  c.inefficient_service = c.pre_computation + c.postpone + c.postponed_service;
  EXPECT_FALSE(postponement_profitable(c));  // strict inequality required
  c.inefficient_service += 0.001;
  EXPECT_TRUE(postponement_profitable(c));
}

// ---- multi-valued livelock valve (regression) ----

// Many bucket groups + tiny pool: without the resident-key cap, pending key
// pages eventually own every page and value allocation livelocks (the
// scenario discovered during bring-up; see DESIGN.md).
TEST(MultiValuedValveTest, ConvergesDespiteKeyPagePressure) {
  Rig rig(192u << 10);
  bigkernel::PipelineConfig pcfg;
  pcfg.records_per_chunk = 256;
  pcfg.max_chunk_bytes = 8u << 10;
  pcfg.num_staging_buffers = 2;
  bigkernel::InputPipeline pipe(rig.ctx, pcfg);

  HashTableConfig cfg;
  cfg.org = Organization::kMultiValued;
  cfg.num_buckets = 1u << 10;
  cfg.buckets_per_group = 16;  // 64 groups x 2 classes >> pool pages
  cfg.page_size = 2u << 10;
  SepoHashTable ht(rig.ctx, cfg);

  Rng rng(99);
  std::ostringstream os;
  for (int i = 0; i < 9000; ++i)
    os << "P" << rng.below(700) << " C" << i << '\n';
  const std::string input = os.str();
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  SepoDriver driver;
  const DriverResult res = driver.run(
      ht, pipe, input, idx, progress,
      [&](std::size_t, std::string_view body) {
        const auto sp = body.find(' ');
        return ht.insert(body.substr(0, sp),
                         std::as_bytes(std::span{body.data() + sp + 1,
                                                 body.size() - sp - 1}));
      });
  EXPECT_TRUE(progress.all_done());
  EXPECT_LT(res.iterations, 100u);
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.value_count(), 9000u);
  // Duplicate key entries from valve-forced flushes are merged on read.
  std::size_t groups = 0;
  t.for_each_group([&](std::string_view,
                       const std::vector<std::span<const std::byte>>&) {
    ++groups;
  });
  EXPECT_EQ(groups, 700u);
}

TEST(MultiValuedValveTest, CapZeroFlushesEveryIteration) {
  // max_resident_key_frac = 0 disables key-page retention entirely; the
  // table still converges via duplicate-entry merging.
  Rig rig(256u << 10);
  bigkernel::PipelineConfig pcfg;
  pcfg.records_per_chunk = 256;
  pcfg.max_chunk_bytes = 8u << 10;
  pcfg.num_staging_buffers = 2;
  bigkernel::InputPipeline pipe(rig.ctx, pcfg);

  HashTableConfig cfg;
  cfg.org = Organization::kMultiValued;
  cfg.num_buckets = 1u << 10;
  cfg.buckets_per_group = 256;
  cfg.page_size = 2u << 10;
  cfg.max_resident_key_frac = 0.0;
  SepoHashTable ht(rig.ctx, cfg);

  std::ostringstream os;
  for (int i = 0; i < 6000; ++i) os << "K" << (i % 200) << " V" << i << '\n';
  const std::string input = os.str();
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  SepoDriver driver;
  (void)driver.run(ht, pipe, input, idx, progress,
                   [&](std::size_t, std::string_view body) {
                     const auto sp = body.find(' ');
                     return ht.insert(
                         body.substr(0, sp),
                         std::as_bytes(std::span{body.data() + sp + 1,
                                                 body.size() - sp - 1}));
                   });
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.value_count(), 6000u);
  std::size_t groups = 0;
  t.for_each_group([&](std::string_view,
                       const std::vector<std::span<const std::byte>>&) {
    ++groups;
  });
  EXPECT_EQ(groups, 200u);
}

// ---- host-table canonicalization ----

TEST(HostTableCanonTest, MergedDuplicatesAreCounted) {
  // Combining with a heap so small that multi-emission postponement creates
  // duplicate key entries; canonicalization must fold them.
  Rig rig(256u << 10);
  bigkernel::PipelineConfig pcfg;
  pcfg.records_per_chunk = 64;
  pcfg.max_chunk_bytes = 8u << 10;
  pcfg.num_staging_buffers = 2;
  bigkernel::InputPipeline pipe(rig.ctx, pcfg);

  HashTableConfig cfg;
  cfg.num_buckets = 1u << 8;
  cfg.buckets_per_group = 64;
  cfg.page_size = 2u << 10;
  cfg.combiner = combine_sum_u64;
  SepoHashTable ht(rig.ctx, cfg);

  // Records emit 8 pairs each over a small key universe.
  std::ostringstream os;
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    for (int w = 0; w < 8; ++w) os << "w" << rng.below(2500) << ' ';
    os << '\n';
  }
  const std::string input = os.str();
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size(), /*multi_emit=*/true);
  SepoDriver driver;
  std::atomic<std::uint64_t> emitted{0};
  (void)driver.run(
      ht, pipe, input, idx, progress,
      [&](std::size_t rec, std::string_view body) {
        std::uint32_t idx_e = 0;
        const std::uint32_t resume = progress.resume_point(rec);
        std::size_t start = 0;
        while (start < body.size()) {
          std::size_t end = body.find(' ', start);
          if (end == std::string_view::npos) end = body.size();
          if (end > start) {
            if (idx_e >= resume) {
              if (ht.insert_u64(body.substr(start, end - start), 1) ==
                  Status::kPostpone)
                return Status::kPostpone;
              progress.advance(rec, idx_e);
              emitted.fetch_add(1, std::memory_order_relaxed);
            }
            ++idx_e;
          }
          start = end + 1;
        }
        return Status::kSuccess;
      });
  const HostTable t = ht.finalize();
  // Total count equals total emissions even with duplicates merged.
  std::uint64_t total = 0;
  t.for_each([&](std::string_view, std::span<const std::byte> v) {
    total += test::as_u64(v);
  });
  EXPECT_EQ(total, 3000u * 8u);
  EXPECT_EQ(total, emitted.load());
}

}  // namespace
}  // namespace sepo::core
