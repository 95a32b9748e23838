// The GPU MapReduce runtime of §V: BigKernel input staging + the SEPO hash
// table as KV store + a thin scheduling layer. "We believe the SEPO model of
// computation makes our MapReduce runtime the first GPU-based MapReduce
// runtime that is capable of processing data larger than what GPU memory
// can hold."
#pragma once

#include <memory>
#include <string_view>

#include "bigkernel/pipeline.hpp"
#include "core/hash_table.hpp"
#include "core/sepo_driver.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::mapreduce {

// §V: "the application programmer is asked to provide an input data
// partitioner function which partitions the input data into smaller chunks".
// The partitioner produces the record index; records are then grouped into
// chunks by the BigKernel pipeline. Defaults to newline splitting.
using Partitioner = std::function<RecordIndex(std::string_view)>;

struct RuntimeConfig {
  core::HashTableConfig table;          // org is overridden by the spec mode
  bigkernel::PipelineConfig pipeline;
  core::DriverConfig driver;
};

struct RunOutcome {
  core::DriverResult driver;
  std::unique_ptr<core::HostTable> table;  // references runtime-owned memory
};

class MapReduceRuntime {
 public:
  // Construction allocates the staging ring; the hash table (and its heap,
  // which claims all remaining device memory) is created per run().
  MapReduceRuntime(gpusim::ExecContext& ctx, RuntimeConfig cfg);

  // Executes the full MapReduce job over `input`. The returned HostTable
  // points into memory owned by this runtime; it remains valid until the
  // next run() or destruction.
  RunOutcome run(std::string_view input, const MrSpec& spec,
                 const Partitioner& partition = {});

 private:
  gpusim::ExecContext& ctx_;
  RuntimeConfig cfg_;
  bigkernel::InputPipeline pipeline_;
  std::unique_ptr<core::SepoHashTable> table_;
};

}  // namespace sepo::mapreduce
