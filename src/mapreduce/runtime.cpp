#include "mapreduce/runtime.hpp"

#include <stdexcept>

#include "mapreduce/sepo_emitter.hpp"

namespace sepo::mapreduce {

MapReduceRuntime::MapReduceRuntime(gpusim::ExecContext& ctx, RuntimeConfig cfg)
    : ctx_(ctx), cfg_(cfg), pipeline_(ctx, cfg.pipeline) {}

RunOutcome MapReduceRuntime::run(std::string_view input, const MrSpec& spec,
                                 const Partitioner& partition) {
  if (table_)
    throw std::logic_error(
        "MapReduceRuntime::run may be called once per runtime: the heap "
        "claims all remaining device memory and cannot be re-carved");
  if (!spec.map) throw std::invalid_argument("spec.map is required");

  core::HashTableConfig tcfg = cfg_.table;
  const TableShape shape = table_shape(spec.mode, spec.combine);
  tcfg.org = shape.org;
  tcfg.combiner = shape.combiner;
  table_ = std::make_unique<core::SepoHashTable>(ctx_, tcfg);

  const RecordIndex index = partition ? partition(input) : index_lines(input);
  RunOutcome outcome;
  outcome.driver =
      run_sepo_job(*table_, pipeline_, input, index, spec.map, cfg_.driver);
  outcome.table = std::make_unique<core::HostTable>(table_->finalize());
  return outcome;
}

}  // namespace sepo::mapreduce
