// Ablation — Basic-organization halt threshold (paper §IV-C, footnote 5:
// "We observed acceptable performance with setting the threshold to 50%").
//
// The Basic organization halts an iteration when the given fraction of
// bucket groups is postponing. A low threshold halts early (little useful
// work per heap fill, many iterations and input re-transfers); a high
// threshold keeps scanning input while most inserts fail (wasted staging
// and scanning). The sweep uses a Basic-organization workload whose table
// is several times the heap.
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

// A Basic-organization app: stores every log line keyed by URL (duplicates
// kept separately, e.g. for per-request analytics).
class RequestLogApp final : public StandaloneApp {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "Request Log (basic)";
  }
  [[nodiscard]] const char* table1_key() const noexcept override {
    return "pvc";
  }
  [[nodiscard]] core::Organization organization() const noexcept override {
    return core::Organization::kBasic;
  }
  [[nodiscard]] std::string generate(std::size_t bytes,
                                     std::uint64_t seed) const override {
    return gen_weblog({.target_bytes = bytes, .seed = seed}, 100000, 0.9);
  }
  void map_record(std::string_view body,
                  mapreduce::Emitter& em) const override {
    const std::size_t get = body.find("\"GET ");
    if (get == std::string_view::npos) return;
    const std::size_t start = get + 5;
    const std::size_t end = body.find(' ', start);
    if (end == std::string_view::npos) return;
    const std::string_view rest = body.substr(end + 1);
    em.emit(body.substr(start, end - start),
            std::as_bytes(std::span{rest.data(), rest.size()}));
  }
};

}  // namespace

int main() {
  std::printf("== Ablation: Basic-organization halt threshold (paper §IV-C "
              "footnote 5) ==\n\n");
  RequestLogApp log;
  const AppInfo app{"request-log", log.name(), &log};
  // Dataset #4: the basic-organization table (~2.5x the heap) forces the
  // halt/flush/restart cycle the threshold governs.
  const std::string input = app.generate(table1_bytes("pvc", 4), 92);

  TablePrinter table({"halt threshold", "iterations", "records scanned",
                      "input bytes staged", "postponed execs",
                      "sim time (ms)"});
  for (const double frac : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EngineConfig cfg;
    cfg.gpu.basic_halt_frac = frac;
    const RunResult r = find_engine("sepo-gpu")->run(app, input, cfg);
    table.add_row(
        {TablePrinter::fmt(frac, 2), TablePrinter::fmt_int(r.iterations),
         TablePrinter::fmt_int(static_cast<long long>(r.stats.records_scanned)),
         TablePrinter::fmt_bytes(r.pcie.h2d_bytes),
         TablePrinter::fmt_int(
             static_cast<long long>(r.stats.records_postponed)),
         TablePrinter::fmt(r.sim_seconds * 1e3, 3)});
  }
  table.print(std::cout);
  std::printf("\nexpected shape: a bowl around the paper's 50%% — very low "
              "thresholds flush underfilled heaps (more iterations), very "
              "high ones scan/stage input that can no longer be stored.\n");
  return 0;
}
