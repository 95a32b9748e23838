#include "gpusim/journal.hpp"

#include <algorithm>

namespace sepo::gpusim {

const char* journal_kind_name(JournalEventKind k) noexcept {
  switch (k) {
    case JournalEventKind::kPageAcquire: return "page_acquire";
    case JournalEventKind::kPageRelease: return "page_release";
    case JournalEventKind::kPageDoubleRelease: return "page_double_release";
    case JournalEventKind::kPressureBegin: return "pressure_begin";
    case JournalEventKind::kPressureEnd: return "pressure_end";
    case JournalEventKind::kFaultRetry: return "fault_retry";
    case JournalEventKind::kFaultBackoff: return "fault_backoff";
    case JournalEventKind::kFaultExhausted: return "fault_exhausted";
    case JournalEventKind::kKernelLaunch: return "kernel_launch";
    case JournalEventKind::kKernelFinish: return "kernel_finish";
    case JournalEventKind::kFlushBarrier: return "flush_barrier";
    case JournalEventKind::kIterationBegin: return "iteration_begin";
    case JournalEventKind::kIterationEnd: return "iteration_end";
  }
  return "unknown";
}

EventJournal::EventJournal(std::size_t shards, std::size_t capacity_per_shard)
    : capacity_(std::max<std::size_t>(1, capacity_per_shard)) {
  ensure_shards(std::max<std::size_t>(1, shards));
}

void EventJournal::ensure_shards(std::size_t shards) {
  while (shards_.size() < shards)
    shards_.push_back(std::make_unique<Shard>(capacity_));
}

std::vector<JournalEvent> EventJournal::drain() const {
  std::vector<JournalEvent> out;
  out.reserve(events_recorded() - events_overwritten());
  for (const auto& sh : shards_) {
    const std::size_t cap = sh->ring.size();
    const std::uint64_t n = std::min<std::uint64_t>(sh->head, cap);
    // Oldest surviving event first: the ring slot after the newest one.
    const std::uint64_t start = sh->head - n;
    for (std::uint64_t i = 0; i < n; ++i)
      out.push_back(sh->ring[(start + i) % cap]);
  }
  std::sort(out.begin(), out.end(),
            [](const JournalEvent& a, const JournalEvent& b) {
              if (a.sim_ts != b.sim_ts) return a.sim_ts < b.sim_ts;
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.worker < b.worker;
            });
  return out;
}

std::uint64_t EventJournal::events_recorded() const noexcept {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->head;
  return n;
}

std::uint64_t EventJournal::events_overwritten() const noexcept {
  std::uint64_t n = 0;
  for (const auto& sh : shards_)
    if (sh->head > sh->ring.size()) n += sh->head - sh->ring.size();
  return n;
}

}  // namespace sepo::gpusim
