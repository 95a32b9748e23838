// In-heap entry layouts for the three bucket organizations (paper §IV-B).
//
// All entries carry *two* link pointers (paper §III-B): `next_dev` is the
// device-memory chain used while populating; `next_host` is the chain formed
// from the eventual CPU-memory addresses assigned at allocation time, which
// makes the table traversable from the host after heap pages are flushed.
//
// Layouts are packed trivially-copyable structs followed by the raw key and
// value bytes, 8-byte aligned, so a page is a contiguous byte-for-byte
// copyable unit (a flush is a single bulk memcpy/PCIe transaction) and is
// linearly walkable (each entry's size is derivable from its header, which
// the multi-valued rebuild pass relies on).
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "alloc/page_pool.hpp"
#include "gpusim/device.hpp"

namespace sepo::core {

using gpusim::DevPtr;
using alloc::HostPtr;

enum class Organization : std::uint8_t {
  kBasic = 0,       // duplicate keys stored as separate entries
  kMultiValued = 1, // per-key value lists; key/value pages separate
  kCombining = 2,   // duplicate keys merged in place via a combiner callback
};

[[nodiscard]] constexpr const char* to_string(Organization o) noexcept {
  switch (o) {
    case Organization::kBasic: return "basic";
    case Organization::kMultiValued: return "multi-valued";
    case Organization::kCombining: return "combining";
  }
  return "?";
}

constexpr std::uint32_t pad8(std::uint32_t n) noexcept {
  return (n + 7u) & ~7u;
}

// --- Basic / Combining entry: header + key bytes (padded) + value bytes ---
struct KvEntry {
  DevPtr next_dev;
  HostPtr next_host;
  std::uint32_t key_len;
  std::uint32_t val_len;

  [[nodiscard]] static std::uint32_t byte_size(std::uint32_t key_len,
                                               std::uint32_t val_len) noexcept {
    return static_cast<std::uint32_t>(sizeof(KvEntry)) + pad8(key_len) +
           pad8(val_len);
  }

  [[nodiscard]] std::uint32_t byte_size() const noexcept {
    return byte_size(key_len, val_len);
  }

  [[nodiscard]] const char* key_data() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  [[nodiscard]] char* key_data() noexcept {
    return reinterpret_cast<char*>(this + 1);
  }
  [[nodiscard]] std::string_view key() const noexcept {
    return {key_data(), key_len};
  }

  [[nodiscard]] const std::byte* value_data() const noexcept {
    return reinterpret_cast<const std::byte*>(this + 1) + pad8(key_len);
  }
  [[nodiscard]] std::byte* value_data() noexcept {
    return reinterpret_cast<std::byte*>(this + 1) + pad8(key_len);
  }
};
static_assert(sizeof(KvEntry) == 24);
static_assert(alignof(KvEntry) == 8);

// --- Multi-valued key entry: bucket chain + value-list heads + key bytes ---
struct KeyEntry {
  DevPtr next_dev;
  HostPtr next_host;
  DevPtr vhead_dev;    // value list head, device chain (current iteration)
  HostPtr vhead_host;  // value list head, host chain (complete)
  std::uint32_t key_len;
  std::uint32_t page;  // page holding this entry, for pending-key marking

  [[nodiscard]] static std::uint32_t byte_size(std::uint32_t key_len) noexcept {
    return static_cast<std::uint32_t>(sizeof(KeyEntry)) + pad8(key_len);
  }

  [[nodiscard]] std::uint32_t byte_size() const noexcept {
    return byte_size(key_len);
  }

  [[nodiscard]] const char* key_data() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  [[nodiscard]] char* key_data() noexcept {
    return reinterpret_cast<char*>(this + 1);
  }
  [[nodiscard]] std::string_view key() const noexcept {
    return {key_data(), key_len};
  }
};
static_assert(sizeof(KeyEntry) == 40);

// --- Multi-valued value entry: list link + value bytes ---
struct ValueEntry {
  DevPtr next_dev;
  HostPtr next_host;
  std::uint32_t val_len;
  std::uint32_t pad_;

  [[nodiscard]] static std::uint32_t byte_size(std::uint32_t val_len) noexcept {
    return static_cast<std::uint32_t>(sizeof(ValueEntry)) + pad8(val_len);
  }

  [[nodiscard]] std::uint32_t byte_size() const noexcept {
    return byte_size(val_len);
  }

  [[nodiscard]] const std::byte* value_data() const noexcept {
    return reinterpret_cast<const std::byte*>(this + 1);
  }
  [[nodiscard]] std::byte* value_data() noexcept {
    return reinterpret_cast<std::byte*>(this + 1);
  }
};
static_assert(sizeof(ValueEntry) == 24);

// Combiner callback (paper §IV-B, combining method: "a callback is used to
// have the application handle the combining"). Plain function pointer —
// mirrors a __device__ function pointer; no captured state.
//
// Contract: a combiner writes `existing` only when the combined bytes differ
// from the bytes already there (store-on-change). A combine that changes
// nothing — an OR of bits already set, `+0` — must not store: on the host, a
// store dirties the entry's cache line even when it writes the same bytes,
// and the next pool worker whose chain walk passes the entry must pull the
// line from another core. This is a host-only measure (DESIGN.md §5a). The
// simulated device still performs, and is charged for, the read-modify-write:
// callers count the combine and meter its traffic whether or not it stored.
//
// A combiner may run more than once per combine and on a copy: the SEPO
// table combines a value that fits one 8-byte word into a private copy and
// publishes it by a CAS, retrying on a lost race, and skips the CAS when the
// copy is unchanged; it combines a longer value in place under the bucket
// lock. So a combiner must depend only on its arguments. Store-on-change
// still binds it in place: in ChainedHostTable, in HostTable's finalize
// merge, and for the SEPO table's longer values.
using CombineFn = void (*)(std::byte* existing, const std::byte* incoming,
                           std::uint32_t len);

// Common combiners used by the applications; each honours the store-on-change
// contract above.
inline void combine_sum_u64(std::byte* e, const std::byte* i, std::uint32_t) {
  std::uint64_t a, b;
  std::memcpy(&a, e, 8);
  std::memcpy(&b, i, 8);
  if (b == 0) return;
  a += b;
  std::memcpy(e, &a, 8);
}

// Compares bit patterns, not values: -0.0 + +0.0 is +0.0, which compares
// equal to -0.0 but is other bytes, and a NaN compares unequal to itself.
inline void combine_sum_f64(std::byte* e, const std::byte* i, std::uint32_t) {
  double a, b;
  std::memcpy(&a, e, 8);
  std::memcpy(&b, i, 8);
  const double sum = a + b;
  if (std::memcmp(&sum, &a, 8) != 0) std::memcpy(e, &sum, 8);
}

inline void combine_or_u32(std::byte* e, const std::byte* i, std::uint32_t) {
  std::uint32_t a, b;
  std::memcpy(&a, e, 4);
  std::memcpy(&b, i, 4);
  const std::uint32_t c = a | b;
  if (c != a) std::memcpy(e, &c, 4);
}

inline void combine_max_u64(std::byte* e, const std::byte* i, std::uint32_t) {
  std::uint64_t a, b;
  std::memcpy(&a, e, 8);
  std::memcpy(&b, i, 8);
  if (b > a) std::memcpy(e, &b, 8);
}

}  // namespace sepo::core
