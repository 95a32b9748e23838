#include "baselines/mapcg.hpp"

#include <algorithm>
#include <atomic>

#include "common/strings.hpp"

namespace sepo::baselines {

namespace {

// MapCG has no way to postpone: a full device heap fails the run.
class MapCgEmitter final : public mapreduce::Emitter {
 public:
  explicit MapCgEmitter(ChainedHostTable& table) noexcept : table_(table) {}

  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    if (table_.insert(0, key, value) == core::Status::kPostpone)
      throw MapCgOutOfMemory("MapCG: device hash table out of memory");
    return core::Status::kSuccess;
  }

 private:
  ChainedHostTable& table_;
};

}  // namespace

MapCgRuntime::MapCgRuntime(gpusim::ExecContext& ctx, MapCgConfig cfg)
    : ctx_(ctx),
      table_(ctx,
             {.org = core::Organization::kMultiValued,
              .num_buckets = cfg.num_buckets},
             EntryMemory::kDevice) {}

void MapCgRuntime::run(std::string_view input, const mapreduce::MrSpec& spec) {
  if (!spec.map) throw std::invalid_argument("spec.map is required");
  if (spec.mode == mapreduce::Mode::kMapReduce && spec.combine == nullptr)
    throw std::invalid_argument("MAP_REDUCE mode requires spec.combine");

  // MapCG copies the entire input to device memory up front; input and
  // table share what the device has. Fail early if the input alone does
  // not fit.
  gpusim::Device& dev = ctx_.device();
  if (input.size() + (64u << 10) > dev.mem_free())
    throw MapCgOutOfMemory("MapCG: input does not fit in device memory");
  const gpusim::DevPtr dev_input = dev.alloc_static(input.size(), 64);
  // MapCG has no pipelining: the upfront copy must complete before the map
  // kernel starts (honestly serial on the timeline, unlike BigKernel).
  const gpusim::Event input_staged =
      ctx_.stage_h2d(dev_input, input.data(), input.size());
  table_.carve_device_heap();

  // Exceptions must not escape a pool worker; an out-of-memory emit sets a
  // flag and the failure is rethrown on the host thread after the kernel.
  const RecordIndex index = index_lines(input);
  gpusim::RunStats& stats = ctx_.stats();
  std::atomic<bool> oom{false};
  ctx_.launch(
      index.size(),
      [&](std::size_t r) {
        if (oom.load(std::memory_order_relaxed)) return;
        const std::string_view body{
            reinterpret_cast<const char*>(
                dev.ptr(dev_input + index.offsets[r])),
            index.lengths[r]};
        stats.add_work_units(body.size());
        MapCgEmitter em(table_);
        try {
          spec.map(body, em);
        } catch (const MapCgOutOfMemory&) {
          oom.store(true, std::memory_order_relaxed);
          return;
        }
        stats.add_records_processed();
      },
      {}, input_staged);
  if (oom.load(std::memory_order_relaxed))
    throw MapCgOutOfMemory("MapCG: device hash table out of memory");

  if (spec.mode == mapreduce::Mode::kMapReduce) reduce_pass(spec.combine);

  // Results are copied back to host in one bulk transfer.
  dev.bus().d2h(table_.allocated_bytes());
  ctx_.flush_d2h(table_.allocated_bytes());
}

void MapCgRuntime::reduce_pass(core::CombineFn combine) {
  // Separate reduce phase ("grouping is postponed to a later stage", the
  // overhead the paper's on-the-fly combining avoids): one thread per
  // bucket folds each key's value list into its newest value.
  using KeyEntry = ChainedHostTable::KeyEntry;
  using ValueEntry = ChainedHostTable::ValueEntry;
  gpusim::RunStats& stats = ctx_.stats();
  ctx_.launch(table_.num_buckets(), [&](std::size_t b) {
    for (KeyEntry* k = table_.chain<KeyEntry>(static_cast<std::uint32_t>(b));
         k != nullptr; k = k->next) {
      ValueEntry* first = k->vhead;
      if (first == nullptr) continue;
      for (const ValueEntry* v = first->next; v != nullptr; v = v->next) {
        stats.add_chain_links();
        combine(first->value_data(), v->value_data(),
                std::min(first->val_len, v->val_len));
        stats.add_combines();
      }
    }
  });
}

void MapCgRuntime::for_each_reduced(
    const std::function<void(std::string_view, std::span<const std::byte>)>&
        fn) const {
  table_.for_each_group(
      [&](std::string_view k,
          const std::vector<std::span<const std::byte>>& vals) {
        if (!vals.empty()) fn(k, vals.front());
      });
}

}  // namespace sepo::baselines
