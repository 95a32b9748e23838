// Unit costs of the modelled machines (DESIGN.md §5).
//
// Simulated time is priced from measured event counts. compute_time() prices
// a counter set on one machine; the gpusim::Timeline schedules those priced
// kernels together with PCIe transfers (PcieParams) on one simulated clock,
// and serialization_time() adds the hot-lock term no parallelism can hide:
//
//   t_gpu = timeline makespan + serialization
//   t_cpu = compute_time(kCpuDesc) + serialization
//
// Host lock contention and atomic retries (lock_contended, atomic_retries)
// are measured and reported but never priced: they depend on the simulation
// host's core count and scheduling, not on the modelled machine. Contention
// is modelled deterministically through SerializationInputs instead.
//
// The unit costs below are fixed parameters derived from the paper's
// testbed description (§VI-A and footnote 1): an Nvidia GTX 780ti
// (2880 cores @ 875 MHz, 336 GB/s) against a quad-core, 8-thread Xeon E5 @
// 3.8 GHz (115 GB/s peak, quad-channel 1800 MHz in practice). Big-data
// record processing is memory-bandwidth- and latency-bound, not FLOP-bound,
// so throughput ratios are taken from achievable memory throughput with a
// discount for the GPU's lower per-thread efficiency on irregular code.
// The absolute values only scale the time axis; the paper-shape conclusions
// (who wins, crossovers) depend on the *ratios* and on the measured counts.
#pragma once

#include <cstdint>

#include "gpusim/counters.hpp"

namespace sepo::gpusim {

// Per-event costs of one *processor-second* of the machine, expressed as
// seconds of aggregate machine time per event.
struct MachineDesc {
  const char* name;

  // Seconds of machine time to chew one work unit (≈ one input byte parsed
  // plus its share of emitted bytes), aggregated over all cores/threads.
  double sec_per_work_unit;
  // Fixed cost of one hash-table operation (hash + bucket fetch).
  double sec_per_hash_op;
  // Cost per byte of key comparison while probing a chain.
  double sec_per_compare_byte;
  // Cost per chain link dereference (dependent memory load).
  double sec_per_chain_link;
  // Cost of one dynamic allocation (bump or malloc).
  double sec_per_alloc;
  // Cost of one uncontended lock acquire/release pair.
  double sec_per_lock;
  // Extra cost per work unit executed under warp divergence: a long
  // data-dependent switch makes the warp run every taken path serially, a
  // ~15x slowdown on the affected bytes (zero for OOO CPU cores).
  double sec_per_divergent_unit;
  // Fixed cost per kernel launch (driver + scheduling), zero for the CPU.
  double sec_per_kernel_launch;
  // Number of hardware contexts that can contend for one lock at once.
  double concurrency;
  // Time a bucket lock is held per operation (hash probe + combine). Used by
  // the hot-lock serialization term below.
  double sec_per_critical_section;
  // Serialized cost of one atomic RMW on a single shared word (e.g. a global
  // bump-allocator counter à la MapCG).
  double sec_per_serial_atomic;
};

// Inputs for the deterministic lock-serialization model. Real measured
// contention on the simulation host would under-represent a 2880-core GPU,
// so serialization is *modelled* from access counts: N lock-protected ops
// over many locks complete in max(N/G, max_same_lock_ops) critical sections
// — the hottest lock is a serial chain no parallelism can hide. This is the
// mechanism behind the paper's Word Count result (§VI-B: "suffers from lock
// contention ... because of the small number of distinct keys and large
// number of duplicate keys" and "A CPU implementation also suffers from
// lock contention, but not as much, given the significantly lower number of
// threads").
struct SerializationInputs {
  std::uint64_t total_lock_ops = 0;      // ops taking some bucket lock
  std::uint64_t max_same_lock_ops = 0;   // ops on the hottest bucket
  std::uint64_t serial_atomic_ops = 0;   // ops on a single shared atomic
};

// Extra time beyond ideal parallelism caused by serialization.
[[nodiscard]] double serialization_time(const MachineDesc& m,
                                        const SerializationInputs& s);

// GTX-780ti-like device. Aggregate parsing throughput modelled at ~24 GB/s
// of effective irregular-access throughput (336 GB/s peak discounted ~14x
// for uncoalesced, short, data-dependent accesses).
constexpr MachineDesc kGpuDesc{
    .name = "gpu-780ti",
    .sec_per_work_unit = 1.0 / 24.0e9,
    .sec_per_hash_op = 8.0e-9 / 2048.0,       // 8ns per op, 2048-way parallel
    .sec_per_compare_byte = 1.0 / 24.0e9,
    .sec_per_chain_link = 60.0e-9 / 2048.0,   // dependent load latency, overlapped
    .sec_per_alloc = 24.0e-9 / 2048.0,
    .sec_per_lock = 20.0e-9 / 2048.0,
    .sec_per_divergent_unit = 15.0 / 24.0e9,  // 15x on divergent bytes
    .sec_per_kernel_launch = 8.0e-6,
    .concurrency = 2048.0,
    .sec_per_critical_section = 120.0e-9,  // lock + probe + combine, serial
    .sec_per_serial_atomic = 25.0e-9,  // contended same-address atomic RMW
};

// Xeon-E5-like host with 8 hardware threads. Aggregate parse+insert
// throughput ~1.2 GB/s (8 threads x ~150 MB/s each — byte-wise parsing plus
// a pointer-chasing hash insert per record is far below memcpy speed).
constexpr MachineDesc kCpuDesc{
    .name = "cpu-xeon-e5",
    .sec_per_work_unit = 1.0 / 1.2e9,
    .sec_per_hash_op = 10.0e-9 / 8.0,
    .sec_per_compare_byte = 1.0 / 16.0e9,
    .sec_per_chain_link = 70.0e-9 / 8.0,     // LLC/DRAM-latency-bound pointer chase
    .sec_per_alloc = 30.0e-9 / 8.0,          // TCMalloc fast path
    .sec_per_lock = 15.0e-9 / 8.0,
    .sec_per_divergent_unit = 0.0,           // OOO cores hide the switch
    .sec_per_kernel_launch = 0.0,
    .concurrency = 8.0,
    .sec_per_critical_section = 60.0e-9,
    .sec_per_serial_atomic = 8.0e-9,
};

// Pure compute time of `s` on machine `m` (no bus transfers).
[[nodiscard]] double compute_time(const MachineDesc& m, const StatsSnapshot& s);

}  // namespace sepo::gpusim
