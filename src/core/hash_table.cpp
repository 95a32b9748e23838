#include "core/hash_table.hpp"

#include <cassert>

#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"

namespace sepo::core {

SepoHashTable::SepoHashTable(gpusim::ExecContext& ctx, HashTableConfig cfg)
    : ctx_(ctx),
      stats_(ctx.stats()),
      store_(ctx, cfg),
      policy_(make_policy(store_.config())) {}

Status SepoHashTable::insert(std::string_view key,
                             std::span<const std::byte> value) {
  assert(!finalized_);
  stats_.add_hash_ops();
  return policy_->insert(store_, store_.bucket_of(key), key, value);
}

const KvEntry* SepoHashTable::find_resident(std::string_view key) const {
  stats_.add_hash_ops();
  const DevPtr p = store_.find_in_chain(store_.bucket_of(key), key);
  return p == gpusim::kDevNull ? nullptr : store_.device().ptr<KvEntry>(p);
}

void SepoHashTable::apply_pressure() {
  gpusim::FaultInjector* const f = ctx_.faults();
  if (f == nullptr || f->config().pressure_rate <= 0) return;
  alloc::PagePool& pool = store_.pool();
  bool new_spike = false;
  const std::uint32_t target = f->pressure_target(pool.page_count(), new_spike);
  if (new_spike) stats_.add_pressure_spikes();
  gpusim::EventJournal* const journal = ctx_.journal();
  if (new_spike && journal != nullptr)
    journal->record(gpusim::JournalEventKind::kPressureBegin, target);
  const std::size_t held_before = pressure_pages_.size();
  // Seize pages straight from the pool (they count as page_acquires — the
  // spike is indistinguishable from another tenant grabbing memory). If the
  // pool runs dry mid-seize the spike simply holds less than it wanted.
  while (pressure_pages_.size() < target) {
    const std::uint32_t p = pool.acquire(stats_);
    if (p == alloc::kInvalidPage) break;
    pressure_pages_.push_back(p);
  }
  while (pressure_pages_.size() > target) {
    pool.release(pressure_pages_.back(), &stats_);
    pressure_pages_.pop_back();
  }
  if (held_before > 0 && pressure_pages_.empty() && journal != nullptr)
    journal->record(gpusim::JournalEventKind::kPressureEnd, held_before);
}

bool SepoHashTable::should_halt(double halt_frac) const noexcept {
  return store_.allocator().postponed_groups() >=
         static_cast<std::uint32_t>(halt_frac * store_.allocator().num_groups());
}

void SepoHashTable::begin_iteration() {
  stats_.add_iterations();
  store_.allocator().reset_postponed();
  apply_pressure();
  policy_->begin_iteration(store_);
}

void SepoHashTable::end_iteration() {
  std::vector<std::uint32_t> to_flush;
  policy_->collect_end_of_iteration(store_, to_flush);
  store_.flush_pages(to_flush);
}

HostTable SepoHashTable::finalize() {
  assert(!finalized_);
  // Return any pages an injected pressure spike still holds.
  for (const std::uint32_t p : pressure_pages_)
    store_.pool().release(p, &stats_);
  pressure_pages_.clear();
  // Flush whatever is still resident (multi-valued key pages included).
  std::vector<std::uint32_t> to_flush;
  policy_->collect_final(store_, to_flush);
  store_.flush_pages(to_flush);
  finalized_ = true;

  return HostTable(store_.config().org, store_.take_host_heads(),
                   store_.host_heap(), store_.config().combiner,
                   &store_.ctx().pool());
}

std::vector<std::uint64_t> SepoHashTable::resident_chain_histogram(
    std::size_t max_len) const {
  std::vector<std::uint64_t> hist(max_len + 1, 0);
  for (std::uint32_t i = 0; i < store_.num_buckets(); ++i) {
    std::size_t len = 0;
    for (DevPtr p = store_.bucket(i).head_dev.load(std::memory_order_relaxed);
         p != gpusim::kDevNull; ++len)
      p = policy_->chain_next(store_.device(), p);
    ++hist[std::min(len, max_len)];
  }
  return hist;
}

}  // namespace sepo::core
