#include "baselines/mapcg.hpp"

#include <cstring>

#include "common/hashing.hpp"
#include "common/strings.hpp"
#include "core/entry_layout.hpp"

namespace sepo::baselines {

namespace {

class MapCgEmitter final : public mapreduce::Emitter {
 public:
  explicit MapCgEmitter(
      const std::function<core::Status(std::string_view,
                                       std::span<const std::byte>)>& sink)
      : sink_(sink) {}

  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    const core::Status s = sink_(key, value);
    if (s == core::Status::kPostpone)
      throw MapCgOutOfMemory("MapCG: device hash table out of memory");
    return s;
  }

 private:
  const std::function<core::Status(std::string_view,
                                   std::span<const std::byte>)>& sink_;
};

}  // namespace

MapCgRuntime::MapCgRuntime(gpusim::ExecContext& ctx, MapCgConfig cfg)
    : ctx_(ctx), dev_(ctx.device()), stats_(ctx.stats()), cfg_(cfg) {
  if (cfg_.num_buckets == 0 || (cfg_.num_buckets & (cfg_.num_buckets - 1)))
    throw std::invalid_argument("num_buckets must be a power of two");
  bucket_mask_ = cfg_.num_buckets - 1;
  // Bucket array + locks live in device memory.
  dev_.alloc_static(static_cast<std::size_t>(cfg_.num_buckets) * 12);
  heads_ = std::vector<std::atomic<gpusim::DevPtr>>(cfg_.num_buckets);
  for (auto& h : heads_) h.store(gpusim::kDevNull, std::memory_order_relaxed);
  locks_ = std::vector<gpusim::PaddedBucketLock>(cfg_.num_buckets);
}

gpusim::DevPtr MapCgRuntime::global_alloc(std::uint32_t bytes) {
  bytes = (bytes + 7u) & ~7u;
  tallies_.add(kSerialAtomicOps, 1);
  stats_.add_alloc_ops();
  const std::uint64_t off =
      arena_used_.fetch_add(bytes, std::memory_order_relaxed);
  if (off + bytes > arena_size_) {
    stats_.add_alloc_fails();
    return gpusim::kDevNull;
  }
  return arena_base_ + off;
}

core::Status MapCgRuntime::insert(std::string_view key,
                                  std::span<const std::byte> value) {
  stats_.add_hash_ops();
  const auto b =
      static_cast<std::uint32_t>(hash_key(key)) & bucket_mask_;
  gpusim::DeviceLockGuard guard(locks_[b].lock, stats_);
  ++locks_[b].accesses;

  KeyNode* kn = nullptr;
  for (gpusim::DevPtr p = heads_[b].load(std::memory_order_relaxed);
       p != gpusim::kDevNull;) {
    stats_.add_chain_links();
    auto* k = dev_.ptr<KeyNode>(p);
    stats_.add_key_compare_bytes(std::min<std::uint64_t>(k->key_len, key.size()));
    if (k->key() == key) {
      kn = k;
      break;
    }
    p = k->next;
  }
  if (kn == nullptr) {
    const auto key_len = static_cast<std::uint32_t>(key.size());
    const gpusim::DevPtr kp = global_alloc(
        static_cast<std::uint32_t>(sizeof(KeyNode)) + core::pad8(key_len));
    if (kp == gpusim::kDevNull) return core::Status::kPostpone;
    kn = dev_.ptr<KeyNode>(kp);
    kn->next = heads_[b].load(std::memory_order_relaxed);
    kn->vhead = gpusim::kDevNull;
    kn->key_len = key_len;
    kn->reduced_len = 0;
    std::memcpy(kn->key_data(), key.data(), key_len);
    heads_[b].store(kp, std::memory_order_release);
    stats_.add_inserts_new();
    tallies_.add(kKeys, 1);
  }
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const gpusim::DevPtr vp = global_alloc(
      static_cast<std::uint32_t>(sizeof(ValueNode)) + core::pad8(val_len));
  if (vp == gpusim::kDevNull) return core::Status::kPostpone;
  auto* vn = dev_.ptr<ValueNode>(vp);
  vn->next = kn->vhead;
  vn->val_len = val_len;
  vn->pad_ = 0;
  if (val_len) std::memcpy(vn->value_data(), value.data(), val_len);
  kn->vhead = vp;
  stats_.add_value_appends();
  tallies_.add(kValues, 1);
  return core::Status::kSuccess;
}

void MapCgRuntime::run(std::string_view input, const mapreduce::MrSpec& spec) {
  if (!spec.map) throw std::invalid_argument("spec.map is required");
  if (spec.mode == mapreduce::Mode::kMapReduce && spec.combine == nullptr)
    throw std::invalid_argument("MAP_REDUCE mode requires spec.combine");

  // MapCG copies the entire input to device memory up front; input and
  // table share what the device has. Fail early if the input alone does
  // not fit.
  if (input.size() + (64u << 10) > dev_.mem_free())
    throw MapCgOutOfMemory("MapCG: input does not fit in device memory");
  const gpusim::DevPtr dev_input = dev_.alloc_static(input.size(), 64);
  // MapCG has no pipelining: the upfront copy must complete before the map
  // kernel starts (honestly serial on the timeline, unlike BigKernel).
  const gpusim::Event input_staged =
      ctx_.stage_h2d(dev_input, input.data(), input.size());

  arena_size_ = dev_.mem_free();
  arena_base_ = dev_.alloc_static(arena_size_, 64);

  const RecordIndex index = index_lines(input);
  const std::function<core::Status(std::string_view,
                                   std::span<const std::byte>)>
      sink = [this](std::string_view k, std::span<const std::byte> v) {
        return insert(k, v);
      };

  // Exceptions must not escape a pool worker; an out-of-memory emit sets a
  // flag and the failure is rethrown on the host thread after the kernel.
  std::atomic<bool> oom{false};
  ctx_.launch(
      index.size(),
      [&](std::size_t r) {
        if (oom.load(std::memory_order_relaxed)) return;
        const std::string_view body{
            reinterpret_cast<const char*>(
                dev_.ptr(dev_input + index.offsets[r])),
            index.lengths[r]};
        stats_.add_work_units(body.size());
        MapCgEmitter em(sink);
        try {
          spec.map(body, em);
        } catch (const MapCgOutOfMemory&) {
          oom.store(true, std::memory_order_relaxed);
          return;
        }
        stats_.add_records_processed();
      },
      {.grid_threads = cfg_.grid_threads}, input_staged);
  if (oom.load(std::memory_order_relaxed))
    throw MapCgOutOfMemory("MapCG: device hash table out of memory");

  if (spec.mode == mapreduce::Mode::kMapReduce) reduce_pass(spec.combine);

  // Results are copied back to host in one bulk transfer.
  dev_.bus().d2h(arena_used_.load(std::memory_order_relaxed));
  ctx_.flush_d2h(arena_used_.load(std::memory_order_relaxed));
}

void MapCgRuntime::reduce_pass(core::CombineFn combine) {
  // Separate reduce phase ("grouping is postponed to a later stage", the
  // overhead the paper's on-the-fly combining avoids): fold each key's
  // value list into its first value node.
  ctx_.launch(heads_.size(), [&](std::size_t b) {
    for (gpusim::DevPtr p = heads_[b].load(std::memory_order_relaxed);
         p != gpusim::kDevNull;) {
      auto* kn = dev_.ptr<KeyNode>(p);
      if (kn->vhead != gpusim::kDevNull) {
        auto* first = dev_.ptr<ValueNode>(kn->vhead);
        for (gpusim::DevPtr vp = first->next; vp != gpusim::kDevNull;) {
          auto* vn = dev_.ptr<ValueNode>(vp);
          stats_.add_chain_links();
          combine(first->value_data(), vn->value_data(),
                  std::min(first->val_len, vn->val_len));
          stats_.add_combines();
          vp = vn->next;
        }
        kn->reduced_len = first->val_len;
      }
      p = kn->next;
    }
  });
  reduced_ = true;
}

void MapCgRuntime::for_each_reduced(
    const std::function<void(std::string_view, std::span<const std::byte>)>&
        fn) const {
  for (const auto& head : heads_) {
    for (gpusim::DevPtr p = head.load(std::memory_order_relaxed);
         p != gpusim::kDevNull;) {
      const auto* kn = dev_.ptr<KeyNode>(p);
      if (kn->vhead != gpusim::kDevNull) {
        const auto* first = dev_.ptr<ValueNode>(kn->vhead);
        fn(kn->key(), std::span{first->value_data(), first->val_len});
      }
      p = kn->next;
    }
  }
}

void MapCgRuntime::for_each_group(
    const std::function<void(std::string_view,
                             const std::vector<std::span<const std::byte>>&)>&
        fn) const {
  std::vector<std::span<const std::byte>> vals;
  for (const auto& head : heads_) {
    for (gpusim::DevPtr p = head.load(std::memory_order_relaxed);
         p != gpusim::kDevNull;) {
      const auto* kn = dev_.ptr<KeyNode>(p);
      vals.clear();
      for (gpusim::DevPtr vp = kn->vhead; vp != gpusim::kDevNull;) {
        const auto* vn = dev_.ptr<ValueNode>(vp);
        vals.emplace_back(vn->value_data(), vn->val_len);
        vp = vn->next;
      }
      fn(kn->key(), vals);
      p = kn->next;
    }
  }
}

}  // namespace sepo::baselines
