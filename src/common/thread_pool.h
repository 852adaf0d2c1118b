#ifndef SLIDER_COMMON_THREAD_POOL_H_
#define SLIDER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slider {

/// \brief Fixed-size worker pool executing submitted tasks asynchronously.
///
/// This is the paper's "Thread Pool" component: rule-module instances are
/// pooled and run on available workers, enabling multiple instances of the
/// same rule to execute in parallel while bounding resource usage (one
/// thread per triple would "exhaust CPU resources", §2).
///
/// WaitIdle() is the synchronisation primitive behind Reasoner::Flush(): it
/// returns only once every submitted task has finished, including tasks that
/// were submitted *by* running tasks (inference cascades).
///
/// ParallelFor() lends the workers to other work while they would sit idle
/// (Repository::Checkpoint builds its snapshot pair on the engine's pool
/// right after a flush). It waits on a latch of its own, not on WaitIdle,
/// and its helper tasks are counted apart from submitted ones.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns true if the task was accepted; false if the
  /// pool has already shut down, in which case the task is discarded — a
  /// submit racing a shutdown is an expected teardown interleaving, not a
  /// programming error, so it must not crash the process. Callers that
  /// cannot afford to lose work must order their submits before Shutdown()
  /// themselves (as Reasoner::Flush does).
  bool Submit(std::function<void()> task);

  /// Blocks until no task is queued or running. Tasks submitted while
  /// waiting (e.g. by other tasks) are also waited for.
  void WaitIdle();

  /// Non-blocking check: true iff no task is queued or running right now.
  bool IsIdle() const;

  /// Stops accepting tasks, drains the queue and joins all workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  /// Runs fn(0), ..., fn(n - 1) and returns once every call has returned.
  /// The calling thread runs fn(0) and then claims further indexes
  /// alongside up to min(n - 1, num_threads()) helper tasks on `pool`, so
  /// the calls run in no fixed order. The caller never waits for a helper
  /// that has not started: a helper that starts after every index is
  /// claimed returns at once, which makes nested calls and calls while the
  /// workers are busy safe. With a null (or shut-down) pool every call
  /// runs inline, in index order. `fn` must be safe to call concurrently
  /// for distinct indexes.
  static void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);

  /// Point-in-time counters, for the demo player and the benches.
  /// tasks_executed and peak_queue_depth count Submit()ted tasks only —
  /// for the reasoner, rule work; ParallelFor's helpers count in
  /// parallel_tasks.
  struct Stats {
    uint64_t tasks_executed = 0;
    uint64_t peak_queue_depth = 0;
    uint64_t parallel_tasks = 0;
    int num_threads = 0;
  };
  Stats stats() const;

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Task {
    std::function<void()> fn;
    bool submitted = true;  // Submit()ted (counted in tasks_executed), or a
                            // ParallelFor helper
  };

  /// Queues `task`; false once the pool has shut down.
  bool Enqueue(Task task);

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  uint64_t tasks_executed_ = 0;
  uint64_t peak_queue_depth_ = 0;
  uint64_t parallel_tasks_ = 0;
  int active_workers_ = 0;
  bool shutdown_ = false;
};

}  // namespace slider

#endif  // SLIDER_COMMON_THREAD_POOL_H_
