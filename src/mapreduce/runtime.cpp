#include "mapreduce/runtime.hpp"

#include <stdexcept>

#include "mapreduce/sepo_emitter.hpp"

namespace sepo::mapreduce {

MapReduceRuntime::MapReduceRuntime(gpusim::ExecContext& ctx, RuntimeConfig cfg)
    : ctx_(ctx), cfg_(cfg), pipeline_(ctx, cfg.pipeline) {}

RunOutcome MapReduceRuntime::run(std::string_view input, const MrSpec& spec,
                                 const Partitioner& partition) {
  return run(input, partition ? partition(input) : index_lines(input), spec);
}

RunOutcome MapReduceRuntime::run(std::string_view input,
                                 const RecordIndex& index, const MrSpec& spec) {
  if (table_)
    throw std::logic_error(
        "MapReduceRuntime::run may be called once per runtime: the heap "
        "claims all remaining device memory and cannot be re-carved");
  if (!spec.map) throw std::invalid_argument("spec.map is required");
  if (spec.mode == Mode::kMapReduce && spec.combine == nullptr)
    throw std::invalid_argument("MAP_REDUCE mode requires spec.combine");

  // Mode selects the bucket organization (§V): MAP_REDUCE embeds the reduce
  // into the map via the combining method; MAP_GROUP groups values via the
  // multi-valued method.
  core::HashTableConfig tcfg = cfg_.table;
  if (spec.mode == Mode::kMapReduce) {
    tcfg.org = core::Organization::kCombining;
    tcfg.combiner = spec.combine;
  } else {
    tcfg.org = core::Organization::kMultiValued;
    tcfg.combiner = nullptr;
  }
  table_ = std::make_unique<core::SepoHashTable>(ctx_, tcfg);

  ProgressTracker progress(index.size(), /*multi_emit=*/true);

  core::SepoDriver driver(cfg_.driver);
  RunOutcome outcome;
  outcome.driver = driver.run(
      *table_, pipeline_, input, index, progress,
      [&](std::size_t rec, std::string_view body) {
        SepoEmitter em(*table_, progress, rec);
        spec.map(body, em);
        return em.failed() ? core::Status::kPostpone : core::Status::kSuccess;
      });
  outcome.table = std::make_unique<core::HostTable>(table_->finalize());
  return outcome;
}

}  // namespace sepo::mapreduce
