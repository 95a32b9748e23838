// Ablation — bucket-organization memory footprint (paper Figure 4).
//
// "Figure 4 shows a snapshot of the hash table when using each of the three
// different bucket organizations for PVC. As can be seen, providing the
// additional bucket organization methods can potentially save a substantial
// amount of memory."
//
// Runs the same PVC workload under basic / multi-valued / combining and
// reports table bytes, entry counts, and SEPO iterations.
#include <cstdio>
#include <iostream>
#include <string>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "common/table_printer.hpp"
#include "mapreduce/spec.hpp"

using namespace sepo;
using namespace sepo::apps;

namespace {

// PVC with a configurable organization: <url, 1> pairs; the combining
// variant sums counts, multi-valued keeps a list of 1s per url, basic keeps
// every pair.
class PvcVariant final : public StandaloneApp {
 public:
  explicit PvcVariant(core::Organization org) : org_(org) {}
  [[nodiscard]] const char* name() const noexcept override {
    return to_string(org_);
  }
  [[nodiscard]] const char* table1_key() const noexcept override {
    return "pvc";
  }
  [[nodiscard]] core::Organization organization() const noexcept override {
    return org_;
  }
  [[nodiscard]] core::CombineFn combiner() const noexcept override {
    return org_ == core::Organization::kCombining ? core::combine_sum_u64
                                                  : nullptr;
  }
  [[nodiscard]] std::string generate(std::size_t bytes,
                                     std::uint64_t seed) const override {
    return gen_weblog({.target_bytes = bytes, .seed = seed}, 40000, 1.0);
  }
  void map_record(std::string_view body,
                  mapreduce::Emitter& em) const override {
    const std::size_t get = body.find("\"GET ");
    if (get == std::string_view::npos) return;
    const std::size_t start = get + 5;
    const std::size_t end = body.find(' ', start);
    if (end == std::string_view::npos) return;
    em.emit_u64(body.substr(start, end - start), 1);
  }

 private:
  core::Organization org_;
};

}  // namespace

int main() {
  std::printf("== Ablation: bucket organizations on the same PVC data "
              "(paper Figure 4) ==\n\n");
  const std::string input =
      PvcVariant(core::Organization::kCombining)
          .generate(table1_bytes("pvc", 3), 93);

  TablePrinter table({"organization", "table bytes", "entries", "values",
                      "iterations", "sim time (ms)"});
  for (const auto org :
       {core::Organization::kBasic, core::Organization::kMultiValued,
        core::Organization::kCombining}) {
    const PvcVariant variant(org);
    const RunResult r = find_engine("sepo-gpu")->run(
        AppInfo{"pvc-variant", variant.name(), &variant}, input, {});
    table.add_row({to_string(org), TablePrinter::fmt_bytes(r.table_bytes),
                   TablePrinter::fmt_int(static_cast<long long>(r.keys)),
                   TablePrinter::fmt_int(static_cast<long long>(
                       r.stats.inserts_new + r.stats.value_appends)),
                   TablePrinter::fmt_int(r.iterations),
                   TablePrinter::fmt(r.sim_seconds * 1e3, 3)});
  }
  table.print(std::cout);
  std::printf("\nexpected shape (Figure 4): basic stores one full KV entry "
              "per request; multi-valued stores the key once plus one value "
              "node per request; combining stores one entry per distinct "
              "url — by far the smallest table and fewest iterations.\n");
  return 0;
}
