// Hash functions shared by the device-side and host-side hash tables.
//
// The paper does not prescribe a hash function; we use a 64-bit FNV-1a
// variant finished with an avalanche mix (splitmix64 finalizer) so that
// bucket selection by low bits is well distributed even for short keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sepo {

// splitmix64 finalizer; full avalanche.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// FNV-1a over arbitrary bytes, then avalanched.
constexpr std::uint64_t hash_bytes(const char* data, std::size_t len) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

inline std::uint64_t hash_key(std::string_view key) noexcept {
  return hash_bytes(key.data(), key.size());
}

// 16-bit key fingerprint taken from the hash's high half, so it is
// independent of the low bits that pick a bucket. Never 0. Stadium's device
// index stores it per pair; the SEPO table's probe lines tag each slot with it.
constexpr std::uint16_t fingerprint(std::uint64_t hash) noexcept {
  return static_cast<std::uint16_t>(hash >> 32) | 1u;
}

constexpr std::uint64_t hash_u64(std::uint64_t v) noexcept { return mix64(v ^ 0x9e3779b97f4a7c15ULL); }

constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace sepo
