// Shared fixtures/helpers for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "apps/harness.hpp"

#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/thread_pool.hpp"

namespace sepo::test {

// A bundled virtual device + pool + stats + execution context with a
// configurable capacity.
struct Rig {
  explicit Rig(std::size_t device_bytes, std::size_t workers = 0)
      : dev(device_bytes), pool(workers) {}

  gpusim::Device dev;
  gpusim::ThreadPool pool;
  gpusim::RunStats stats;
  gpusim::ExecContext ctx{dev, pool, stats};
};

inline std::span<const std::byte> bytes_of(const std::uint64_t& v) {
  return std::as_bytes(std::span{&v, 1});
}

inline std::string bytes_to_string(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

inline std::uint64_t as_u64(std::span<const std::byte> b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min<std::size_t>(8, b.size()));
  return v;
}

// Golden-counter fingerprint of one engine run: every nonzero counter as
// "name=value" in declaration order, then the PCIe totals and the result
// fields. A zero counter that turns nonzero (or the reverse) changes the
// string as surely as a changed value.
inline std::string golden_fingerprint(const apps::RunResult& r) {
  std::string s;
  const auto put = [&s](const char* name, std::uint64_t v) {
    if (v == 0) return;
    if (!s.empty()) s += ' ';
    s += name;
    s += '=';
    s += std::to_string(v);
  };
  r.stats.for_each_field(put);
  put("h2d_bytes", r.pcie.h2d_bytes);
  put("h2d_txns", r.pcie.h2d_txns);
  put("d2h_bytes", r.pcie.d2h_bytes);
  put("d2h_txns", r.pcie.d2h_txns);
  put("remote_bytes", r.pcie.remote_bytes);
  put("remote_txns", r.pcie.remote_txns);
  put("keys", r.keys);
  put("checksum", r.checksum);
  put("table_bytes", r.table_bytes);
  return s;
}

}  // namespace sepo::test
