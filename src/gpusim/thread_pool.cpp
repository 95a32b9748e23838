#include "gpusim/thread_pool.hpp"

#include <stdexcept>
#include <string>

namespace sepo::gpusim {

std::size_t ThreadPool::resolve_workers(std::size_t workers) {
  if (workers > kMaxPoolWorkers)
    throw std::invalid_argument("ThreadPool: " + std::to_string(workers) +
                                " workers exceeds the maximum of " +
                                std::to_string(kMaxPoolWorkers));
  if (workers != 0) return workers;
  const unsigned hc = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hc > 0 ? hc : 1, kMaxPoolWorkers);
}

ThreadPool::ThreadPool(std::size_t workers) {
  workers = resolve_workers(workers);
  // The calling thread is always participant 0; spawn workers-1 helpers with
  // indices 1..workers-1.
  const std::size_t helpers = workers - 1;
  threads_.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i)
    threads_.emplace_back([this, idx = i + 1] { worker_loop(idx); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  detail::t_worker_slot = index;
  std::uint64_t seen = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || (job_ != nullptr && job_seq_ != seen); });
      if (stop_) return;
      job = job_;
      seen = job_seq_;
      // Register under the lock: the submitter cannot observe remaining==0
      // and tear the job down between our job_ read and this increment.
      job->in_flight.fetch_add(1, std::memory_order_relaxed);
    }
    help(*job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      job->in_flight.fetch_sub(1, std::memory_order_relaxed);
      // Only the single submitter ever waits on cv_done_ (submissions are
      // serialized by submit_mu_), so one wakeup is exactly enough.
      cv_done_.notify_one();
    }
  }
}

void ThreadPool::help(Job& job) {
  while (true) {
    const std::size_t start = job.next.fetch_add(job.batch, std::memory_order_relaxed);
    if (start >= job.n) break;
    const std::size_t end = std::min(start + job.batch, job.n);
    job.invoke(job.body, start, end);
    if (job.remaining.fetch_sub(end - start, std::memory_order_acq_rel) ==
        end - start) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_one();
    }
  }
}

// Shared submit/execute/drain path behind both parallel_for and run_parties.
void ThreadPool::run_job(std::size_t n, std::size_t batch, BatchFn invoke,
                         void* body) {
  std::lock_guard<std::mutex> submit(submit_mu_);
  Job job;
  job.invoke = invoke;
  job.body = body;
  job.n = n;
  job.batch = batch;
  job.remaining.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    ++job_seq_;
  }
  cv_work_.notify_all();
  // Participate as worker 0 of *this* pool for the span of the job; save and
  // restore so the submitter returns to its own slot afterwards (the host
  // slot, or its index in some other pool).
  const std::size_t saved_slot = detail::t_worker_slot;
  detail::t_worker_slot = 0;
  help(job);
  detail::t_worker_slot = saved_slot;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] {
      return job.remaining.load(std::memory_order_acquire) == 0 &&
             job.in_flight.load(std::memory_order_relaxed) == 0;
    });
    job_ = nullptr;
  }
}

}  // namespace sepo::gpusim
