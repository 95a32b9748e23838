// Demand-paging lower-bound experiment (paper §VI-D, Table III).
//
// "We instrumented the code of PVC to record the access pattern to the hash
// table. We use this access pattern to simulate and then count the number of
// page replacements that demand paging hardware would have imposed...
// Multiplying this number by the page size yields the total amount of data
// that has to be transferred over the PCIe bus."
//
// TracedCombiningTable replays a PVC-style combining workload over a
// hypothetical unified hash table, recording the byte address of every
// memory touch (bucket head, chain probes, entry writes/updates).
// simulate_lru then plays the trace against an LRU page cache of a given
// size. As in the paper, pages are "initially GPU resident": faults are
// counted only once the cache is at capacity (replacements), so a memory
// size ≥ table size reports zero transfers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/spec.hpp"

namespace sepo::baselines {

// Combining hash table over a flat virtual address space that records every
// address it touches. Host-side and single-threaded: the trace order is the
// program order of the instrumented run.
class TracedCombiningTable {
 public:
  explicit TracedCombiningTable(std::uint32_t num_buckets = 1u << 15);

  // PVC-style insert of <key, +1>.
  void insert_count(std::string_view key);

  [[nodiscard]] const std::vector<std::uint64_t>& trace() const noexcept {
    return trace_;
  }
  // High-water mark of the virtual table (bucket array + entries), in bytes.
  [[nodiscard]] std::uint64_t table_bytes() const noexcept { return bump_; }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries_.size();
  }

  // Host-side iteration over the final content: fn(key, count). Used to
  // digest the replayed table against the other implementations.
  template <typename Fn>
  void for_each_count(const Fn& fn) const {
    for (const Entry& e : entries_) fn(std::string_view{e.key}, e.count);
  }

 private:
  struct Entry {
    std::uint64_t addr;   // virtual address of this entry
    std::uint64_t count;  // PVC value
    std::uint32_t next;   // chain link (index into entries_), ~0u = null
    std::uint32_t key_len;
    std::string key;
  };

  std::uint32_t bucket_mask_;
  std::uint64_t bucket_base_ = 0;  // bucket array occupies the space start
  std::uint64_t bump_;             // next free virtual address
  std::vector<std::uint32_t> heads_;  // index into entries_, ~0u = null
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> trace_;
};

// Feeds a map function's emits into a TracedCombiningTable as <key, +1>
// inserts; the value is ignored, so only count-combining apps (PVC) replay
// faithfully.
class TraceEmitter final : public mapreduce::Emitter {
 public:
  explicit TraceEmitter(TracedCombiningTable& t) noexcept : t_(t) {}
  core::Status emit(std::string_view key,
                    std::span<const std::byte>) override {
    t_.insert_count(key);
    return core::Status::kSuccess;
  }

 private:
  TracedCombiningTable& t_;
};

struct PagingResult {
  std::uint64_t replacements = 0;  // faults once the cache is full
  std::uint64_t bytes_transferred = 0;
  std::uint64_t accesses = 0;
  std::uint64_t pages_touched = 0;
};

// Plays `trace` (byte addresses) against an LRU cache of
// `mem_bytes / page_size` pages.
[[nodiscard]] PagingResult simulate_lru(std::span<const std::uint64_t> trace,
                                        std::uint64_t page_size,
                                        std::uint64_t mem_bytes);

}  // namespace sepo::baselines
