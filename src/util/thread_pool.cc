#include "util/thread_pool.h"

#include "util/fault.h"
#include "util/logging.h"

namespace aplus {

namespace {
// True while this thread is running inside a ThreadPool job (as the
// coordinator or as a pool worker). A nested Run from such a thread
// would deadlock on job_mu_ (the outer job holds it until completion,
// which requires the nested caller to finish), so nested parallel
// regions degrade to inline sequential execution instead.
thread_local bool tls_in_parallel_job = false;
}  // namespace

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::EnsureThreadsLocked(int needed) {
  while (static_cast<int>(threads_.size()) < needed) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Run(int num_workers, JobFn fn, void* ctx) {
  if (num_workers <= 1) {
    fn(ctx, 0);
    return;
  }
  if (tls_in_parallel_job || fault::ShouldFail(fault::kPoolDispatch)) {
    // Nested parallel region (e.g. a RowConsumer::OnBatch executing a
    // sub-plan): run every worker id inline on this thread. The fault
    // point exercises the same degraded path from the top level —
    // results must match the truly parallel run.
    for (int id = 0; id < num_workers; ++id) fn(ctx, id);
    return;
  }
  std::lock_guard<std::mutex> job_lock(job_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureThreadsLocked(num_workers - 1);
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_workers_ = num_workers;
    job_next_id_.store(1, std::memory_order_relaxed);
    job_pending_ = num_workers - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  tls_in_parallel_job = true;
  fn(ctx, 0);
  tls_in_parallel_job = false;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return job_pending_ == 0; });
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [&] { return stop_ || (generation_ != seen_generation && job_pending_ > 0); });
    if (stop_) return;
    seen_generation = generation_;
    // Unique worker id per (thread, job); threads beyond the job's width
    // (the pool outgrew this job) go straight back to sleep.
    int id = job_next_id_.fetch_add(1, std::memory_order_relaxed);
    if (id >= job_workers_) continue;
    JobFn fn = job_fn_;
    void* ctx = job_ctx_;
    lock.unlock();
    tls_in_parallel_job = true;
    fn(ctx, id);
    tls_in_parallel_job = false;
    lock.lock();
    if (--job_pending_ == 0) done_cv_.notify_all();
  }
}

}  // namespace aplus
