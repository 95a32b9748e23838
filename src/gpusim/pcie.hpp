// PCIe bus model.
//
// The paper's headline comparisons (SEPO vs pinned-in-CPU-memory vs demand
// paging, §VI-D) are decided by how many bytes cross the bus in how many
// transactions: "the data is transferred over many small PCIe transactions,
// which is much costlier than a few bulky PCIe transactions". We therefore
// meter every transfer as (transaction count, byte count) and convert to time
// with a latency + bandwidth model, exactly the arithmetic the paper uses to
// compute Table III's lower bounds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gpusim/sharded_counters.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::gpusim {

struct PcieParams {
  // Effective host<->device bandwidth for bulk copies. PCIe Gen3 x16 is
  // 15.75 GB/s raw; ~12 GB/s is a typical achieved figure.
  double bandwidth_bytes_per_s = 12.0e9;
  // Per-transaction setup latency (driver + DMA descriptor + link).
  double latency_s = 1.3e-6;
  // Small remote accesses (a GPU thread dereferencing pinned CPU memory)
  // pay a round-trip and achieve very poor effective bandwidth.
  double remote_roundtrip_s = 0.9e-6;
  double remote_bandwidth_bytes_per_s = 0.8e9;

  // The one PCIe pricing (the timeline's copy and remote commands, the
  // benches' repricing). Bulk transfers: per-transaction latency plus
  // streaming time.
  [[nodiscard]] double bulk_time(std::uint64_t bytes,
                                 std::uint64_t txns) const noexcept {
    return static_cast<double>(txns) * latency_s +
           static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }

  // Remote word-granularity accesses. Round-trips overlap across the
  // thousands of concurrent device threads, so the round-trip is charged
  // amortized by a pipelining factor rather than serially.
  [[nodiscard]] double remote_time(std::uint64_t bytes,
                                   std::uint64_t txns) const noexcept {
    constexpr double kOverlapFactor = 64.0;  // in-flight remote requests
    return static_cast<double>(txns) * remote_roundtrip_s / kOverlapFactor +
           static_cast<double>(bytes) / remote_bandwidth_bytes_per_s;
  }
};

struct PcieSnapshot {
  std::uint64_t h2d_bytes = 0, h2d_txns = 0;
  std::uint64_t d2h_bytes = 0, d2h_txns = 0;
  std::uint64_t remote_bytes = 0, remote_txns = 0;

  PcieSnapshot& operator+=(const PcieSnapshot& o) {
    h2d_bytes += o.h2d_bytes;
    h2d_txns += o.h2d_txns;
    d2h_bytes += o.d2h_bytes;
    d2h_txns += o.d2h_txns;
    remote_bytes += o.remote_bytes;
    remote_txns += o.remote_txns;
    return *this;
  }
};

class PcieBus {
 public:
  explicit PcieBus(PcieParams params = {}) : params_(params) {}

  // Bulk host-to-device copy (input staging).
  void h2d(std::uint64_t bytes) noexcept {
    counters_.add(kH2dBytes, bytes);
    counters_.add(kH2dTxns, 1);
    if (trace_hook_) trace_hook_->on_h2d(bytes);
  }

  // Bulk device-to-host copy (heap flushes).
  void d2h(std::uint64_t bytes) noexcept {
    counters_.add(kD2hBytes, bytes);
    counters_.add(kD2hTxns, 1);
    if (trace_hook_) trace_hook_->on_d2h(bytes);
  }

  // Small remote accesses from a device thread to pinned host memory:
  // `txns` transactions of `bytes` in all (a chain walk meters its links at
  // once).
  void remote(std::uint64_t bytes, std::uint64_t txns = 1) noexcept {
    counters_.add(kRemoteBytes, bytes);
    counters_.add(kRemoteTxns, txns);
    if (trace_hook_) trace_hook_->on_remote(bytes);
  }

  // Telemetry hook (obs::TraceRecorder). Install from the host before the
  // run; null keeps the metering paths hook-free apart from one branch.
  void set_trace_hook(TraceHook* hook) noexcept { trace_hook_ = hook; }
  [[nodiscard]] TraceHook* trace_hook() const noexcept { return trace_hook_; }

  // Folds the per-worker shards; exact at quiescent points (RunStats).
  [[nodiscard]] PcieSnapshot snapshot() const noexcept {
    const auto c = counters_.sum();
    PcieSnapshot s;
    s.h2d_bytes = c[kH2dBytes];
    s.h2d_txns = c[kH2dTxns];
    s.d2h_bytes = c[kD2hBytes];
    s.d2h_txns = c[kD2hTxns];
    s.remote_bytes = c[kRemoteBytes];
    s.remote_txns = c[kRemoteTxns];
    return s;
  }

  void reset() noexcept { counters_.reset(); }

  [[nodiscard]] const PcieParams& params() const noexcept { return params_; }

 private:
  enum Counter : std::size_t {
    kH2dBytes,
    kH2dTxns,
    kD2hBytes,
    kD2hTxns,
    kRemoteBytes,
    kRemoteTxns,
    kNumCounters
  };

  PcieParams params_;
  TraceHook* trace_hook_ = nullptr;
  // Per-worker shards: a pinned-baseline kernel meters millions of remote
  // accesses, and one shared pair of atomics would serialize every worker.
  ShardedCounters<kNumCounters> counters_;
};

}  // namespace sepo::gpusim
