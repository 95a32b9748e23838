// Ablation — load factor > 1 (paper §IV: separate chaining with dynamic
// allocation "allows the hash table to approach and surpass a load factor
// of 1 while having its performance degrade gracefully").
//
// Fixes the key count and sweeps the bucket count so the load factor spans
// 0.25x .. 16x; reports probe work (chain links walked per op) and modelled
// time. No reorganization is ever needed — the failure mode of
// open-addressing near load factor 1 does not exist here.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/engine.hpp"
#include "common/random.hpp"
#include "common/table_printer.hpp"
#include "mapreduce/spec.hpp"

using namespace sepo;
using namespace sepo::apps;

namespace {

class KeyStreamApp final : public StandaloneApp {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "key stream";
  }
  [[nodiscard]] const char* table1_key() const noexcept override {
    return "pvc";
  }
  [[nodiscard]] core::Organization organization() const noexcept override {
    return core::Organization::kCombining;
  }
  [[nodiscard]] core::CombineFn combiner() const noexcept override {
    return core::combine_sum_u64;
  }
  [[nodiscard]] std::string generate(std::size_t, std::uint64_t seed) const override {
    // 32k distinct keys, 160k records.
    Rng rng(seed);
    std::ostringstream os;
    for (int i = 0; i < 160000; ++i) os << "key-" << rng.below(32768) << "\n";
    return os.str();
  }
  void map_record(std::string_view body,
                  mapreduce::Emitter& em) const override {
    em.emit_u64(body, 1);
  }
};

}  // namespace

int main() {
  std::printf("== Ablation: chaining past load factor 1 (paper §IV) ==\n\n");
  KeyStreamApp keys;
  const AppInfo app{"key-stream", keys.name(), &keys};
  const std::string input = app.generate(0, 94);

  TablePrinter table({"buckets", "load factor", "links walked / op",
                      "iterations", "sim time (ms)"});
  for (const std::uint32_t buckets :
       {1u << 17, 1u << 16, 1u << 15, 1u << 14, 1u << 13, 1u << 12, 1u << 11}) {
    EngineConfig cfg;
    cfg.gpu.num_buckets = buckets;
    cfg.gpu.buckets_per_group = buckets / 32;
    const RunResult r = find_engine("sepo-gpu")->run(app, input, cfg);
    table.add_row(
        {TablePrinter::fmt_int(buckets),
         TablePrinter::fmt(32768.0 / static_cast<double>(buckets), 2),
         TablePrinter::fmt(static_cast<double>(r.stats.chain_links_walked) /
                               static_cast<double>(r.stats.hash_ops),
                           2),
         TablePrinter::fmt_int(r.iterations),
         TablePrinter::fmt(r.sim_seconds * 1e3, 3)});
  }
  table.print(std::cout);
  std::printf("\nexpected shape: probe work grows linearly with load factor "
              "and time degrades smoothly — no cliff at load factor 1, no "
              "table reorganizations.\n");
  return 0;
}
