// One bucket's probe line (DESIGN.md §5a), the bucket head of both chained
// tables: the SEPO table (core::SepoHashTable) and the baselines'
// ChainedHostTable. The line holds the bucket lock, a seqlock version, the
// chain length, the baseline's access tally and the newest kSlots chain
// entries, newest first, on one host cache line. The chain is the line's
// slots followed by the last slot's entry's next links; its head is slot 0.
//
// A slot packs a 48-bit entry handle (a device offset in the SEPO table, a
// native pointer in ChainedHostTable), an 8-bit tag from the key's hash and
// the key's length in 8 bits (kLongKey: 255 bytes or more, read from the
// entry). A probe passes a slot whose tag or length differs from the key's
// without touching its entry, yet counts it as the plain walk does: one link
// and min(key_len, key.size()) compared bytes. So the simulated counts are
// those of a walk that reads every entry; only host cache misses change.
//
// Slots and length change only under the lock, inside an odd version, so a
// probe that reads one even version twice saw a consistent line without
// taking the lock (the SEPO table's lock-free path). Past the slots the
// chain is immutable while inserts run: entries are only ever prepended.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/hashing.hpp"
#include "gpusim/launch.hpp"

namespace sepo::core {

// A slot's 8-bit tag: the high byte of the key's 16-bit fingerprint, which
// is independent of the low hash bits that pick the bucket.
constexpr std::uint8_t probe_tag(std::uint64_t hash) noexcept {
  return static_cast<std::uint8_t>(fingerprint(hash) >> 8);
}

struct alignas(gpusim::kCacheLineBytes) ProbeLine {
  static constexpr std::uint32_t kSlots = 6;
  // Slot length of a key of kLongKey bytes or more.
  static constexpr std::uint32_t kLongKey = 0xff;
  static constexpr std::uint64_t kMaxHandle = (std::uint64_t{1} << 48) - 1;

  gpusim::DeviceLock lock;
  std::atomic<std::uint32_t> version{0};
  std::atomic<std::uint32_t> len{0};
  // ChainedHostTable's per-bucket access tally, bumped under the lock and
  // read when the table is quiescent. (The SEPO table keeps per-worker
  // rows instead, so a lock-free combine writes no shared line.)
  std::uint32_t accesses = 0;
  std::atomic<std::uint64_t> slot[kSlots]{};

  static constexpr std::uint64_t handle(std::uint64_t s) noexcept {
    return s & kMaxHandle;
  }
  static constexpr std::uint8_t tag(std::uint64_t s) noexcept {
    return static_cast<std::uint8_t>(s >> 48);
  }
  static constexpr std::uint32_t key_len(std::uint64_t s) noexcept {
    return static_cast<std::uint32_t>(s >> 56);
  }

  // The chain head's handle, 0 when the chain is empty. Caller holds the
  // lock, or the table is quiescent.
  [[nodiscard]] std::uint64_t head() const noexcept {
    return len.load(std::memory_order_relaxed) == 0
               ? 0
               : handle(slot[0].load(std::memory_order_acquire));
  }

  // Makes the entry at handle `h`, whose next link already holds the old
  // head, the newest slot. Caller holds the lock. Throws std::length_error
  // for a handle wider than 48 bits.
  void push(std::uint64_t h, std::uint32_t key_len, std::uint8_t tag) {
    if (h > kMaxHandle)
      throw std::length_error("probe line: entry handle wider than 48 bits");
    const std::uint32_t v = version.load(std::memory_order_relaxed);
    version.store(v + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::uint32_t i = kSlots - 1; i > 0; --i)
      slot[i].store(slot[i - 1].load(std::memory_order_relaxed),
                    std::memory_order_release);
    slot[0].store(h | std::uint64_t{tag} << 48 |
                      std::uint64_t{std::min(key_len, kLongKey)} << 56,
                  std::memory_order_release);
    len.store(len.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
    version.store(v + 2, std::memory_order_release);
  }
};
static_assert(sizeof(ProbeLine) == gpusim::kCacheLineBytes);

// A probe's result and the walk a plain chain walk would have made.
struct Probe {
  std::uint64_t hit = 0;        // the matching entry's handle; 0 on a miss
  std::uint32_t links = 0;      // entries passed, the hit included
  std::uint64_t bytes = 0;      // min(key_len, key.size()) over those links
  std::uint64_t key_bytes = 0;  // key_len over those links
  std::uint32_t version = 0;    // the even line version the probe read
};

// Looks `key` (whose probe_tag is `tag`) up in a line's chain; needs no
// lock. One pass over the slots, the seqlock check (a moved version repeats
// the pass), then a walk from the last slot's next link. `chain` resolves
// handles: chain.at(h) is the entry at handle h, chain.next(e) the handle
// of the entry after e (0 ends the chain). Only a slot whose tag and length
// match, or whose key is too long for its length field, is dereferenced.
template <typename Chain>
[[nodiscard]] Probe probe(const ProbeLine& line, std::string_view key,
                          std::uint8_t tag, const Chain& chain) {
  for (;;) {
    Probe r;
    r.version = line.version.load(std::memory_order_acquire);
    if (r.version & 1u) {  // a push is editing the line
      std::this_thread::yield();
      continue;
    }
    const std::uint32_t len = line.len.load(std::memory_order_relaxed);
    const std::uint32_t n = std::min(len, ProbeLine::kSlots);
    std::uint64_t s = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      s = line.slot[i].load(std::memory_order_acquire);
      ++r.links;
      std::uint32_t key_len = ProbeLine::key_len(s);
      if (key_len == ProbeLine::kLongKey)
        key_len = chain.at(ProbeLine::handle(s))->key_len;
      r.bytes += std::min<std::uint64_t>(key_len, key.size());
      r.key_bytes += key_len;
      if (ProbeLine::tag(s) == tag && key_len == key.size() &&
          chain.at(ProbeLine::handle(s))->key() == key) {
        r.hit = ProbeLine::handle(s);
        break;
      }
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (line.version.load(std::memory_order_relaxed) != r.version) continue;
    if (r.hit != 0 || len <= ProbeLine::kSlots) return r;
    for (std::uint64_t h = chain.next(*chain.at(ProbeLine::handle(s)));
         h != 0;) {
      const auto* e = chain.at(h);
      ++r.links;
      r.bytes += std::min<std::uint64_t>(e->key_len, key.size());
      r.key_bytes += e->key_len;
      if (e->key() == key) {
        r.hit = h;
        break;
      }
      h = chain.next(*e);
    }
    return r;
  }
}

}  // namespace sepo::core
