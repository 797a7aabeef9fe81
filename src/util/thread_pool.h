#ifndef APLUS_UTIL_THREAD_POOL_H_
#define APLUS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace aplus {

// A persistent worker pool for fork-join parallel regions (morsel-driven
// Plan::Execute, parallel index builds). Workers are spawned lazily on
// first use and kept alive for the pool's lifetime, so a steady stream
// of ParallelRun calls performs no thread creation and no heap
// allocation: the dispatch path stores a plain function pointer plus a
// context pointer, never a std::function.
//
// One job runs at a time; ParallelRun calls from different threads
// serialize on an internal mutex. The calling thread always participates
// as worker 0, so ParallelRun(1, body) degenerates to a direct call.
// A nested ParallelRun from inside a job (e.g. a SinkOp callback
// executing a sub-plan) runs every worker id inline on the calling
// thread instead of deadlocking on the job mutex.
class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs body(worker_id) for worker_id in [0, num_workers) and blocks
  // until every worker returns. `body` must be callable as void(int) and
  // stays alive for the duration of the call (it is passed by reference,
  // not copied — no allocation).
  template <typename Body>
  void ParallelRun(int num_workers, Body&& body) {
    Run(num_workers,
        [](void* ctx, int id) { (*static_cast<std::remove_reference_t<Body>*>(ctx))(id); },
        &body);
  }

  // Process-wide pool shared by every Plan, grown on demand and joined
  // at exit.
  static ThreadPool& Global();

 private:
  using JobFn = void (*)(void* ctx, int worker_id);

  void Run(int num_workers, JobFn fn, void* ctx);
  void WorkerLoop();
  void EnsureThreadsLocked(int needed);

  std::mutex job_mu_;  // serializes whole jobs across calling threads

  std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  uint64_t generation_ = 0;  // bumped per job; workers wake on change
  JobFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  int job_workers_ = 0;
  std::atomic<int> job_next_id_{0};  // worker ids handed out per job
  int job_pending_ = 0;              // pool workers still running the job
  bool stop_ = false;
};

}  // namespace aplus

#endif  // APLUS_UTIL_THREAD_POOL_H_
