// Host thread pool that executes virtual-GPU kernels (gpusim/launch.hpp).
//
// The pool provides the *concurrency* of the simulated device — thousands of
// virtual threads are multiplexed onto the pool — while the *throughput* of
// the device is modelled separately by gpusim::CostModel (DESIGN.md §5).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "gpusim/worker_id.hpp"

namespace sepo::gpusim {

class ThreadPool {
 public:
  // `workers == 0` selects the hardware concurrency, capped at
  // kMaxPoolWorkers; an explicit count above kMaxPoolWorkers throws
  // std::invalid_argument.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  // The worker_count() a pool constructed with `workers` has.
  [[nodiscard]] static std::size_t resolve_workers(std::size_t workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size() + 1;  // workers + the calling thread
  }

  // Runs `body(i)` for every i in [0, n). Blocks until all items complete.
  // Items are claimed dynamically in small batches so skewed per-item costs
  // balance across workers. The calling thread participates. Instantiated
  // per concrete callable, so the per-item call inlines into the batch loop.
  // Each worker sees on the order of 16 batches — small enough for balance,
  // large enough to amortize the atomic claim.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    if (n == 0) return;
    run_job(n, std::max<std::size_t>(1, n / (worker_count() * 16)),
            &invoke_batch<std::remove_reference_t<Body>>, body_ptr(body));
  }

  // Runs `body(t)` once per participant t in [0, parties); each call runs on
  // its own thread (calling thread is participant 0). Used for persistent
  // per-thread work such as the CPU-baseline insert loops.
  template <typename Body>
  void run_parties(std::size_t parties, Body&& body) {
    if (parties == 0) return;
    run_job(parties, 1, &invoke_batch<std::remove_reference_t<Body>>,
            body_ptr(body));
  }

 private:
  // Type-erased *batch* entry point: one function pointer per concrete
  // callable type, instantiated where the callable's type is visible, so the
  // compiler inlines the per-item call into this loop. Erasing at batch
  // granularity instead of item granularity is what removes the per-item
  // indirect call from the hot path while keeping Job non-templated.
  using BatchFn = void (*)(void* body, std::size_t begin, std::size_t end);

  template <typename B>
  static void invoke_batch(void* body, std::size_t begin, std::size_t end) {
    B& b = *static_cast<B*>(body);
    for (std::size_t i = begin; i < end; ++i) b(i);
  }

  template <typename B>
  [[nodiscard]] static void* body_ptr(B& body) noexcept {
    // invoke_batch<B> restores the exact cv-qualification before calling.
    return const_cast<void*>(static_cast<const void*>(std::addressof(body)));
  }

  struct Job {
    BatchFn invoke = nullptr;
    void* body = nullptr;
    std::size_t n = 0;
    std::size_t batch = 1;
    // The two hot atomics live on their own cache lines: `next` is hammered
    // by every claim and `remaining` by every batch retirement, so letting
    // them share a line with each other (or with the read-mostly fields
    // above) would reintroduce the false sharing this layout exists to kill.
    alignas(kCacheLineBytes) std::atomic<std::size_t> next{0};
    alignas(kCacheLineBytes) std::atomic<std::size_t> remaining{0};
    // Workers currently inside help() for this job; run_job must not return
    // (and destroy the stack-allocated Job) while any remain.
    alignas(kCacheLineBytes) std::atomic<int> in_flight{0};
  };

  void run_job(std::size_t n, std::size_t batch, BatchFn invoke, void* body);
  void worker_loop(std::size_t index);
  void help(Job& job);

  std::vector<std::thread> threads_;
  // Serializes submitters: the pool has a single job slot, and holding this
  // across a whole job makes parallel_for/run_parties safe to call
  // concurrently from multiple threads (they simply queue up).
  std::mutex submit_mu_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;  // current job, guarded by mu_ for publication
  std::uint64_t job_seq_ = 0;
  bool stop_ = false;
};

}  // namespace sepo::gpusim
