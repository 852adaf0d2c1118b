#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/macros.h"

namespace slider {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  SLIDER_CHECK(task != nullptr);
  return Enqueue(Task{std::move(task), /*submitted=*/true});
}

bool ThreadPool::Enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    const bool submitted = task.submitted;
    queue_.push_back(std::move(task));
    if (submitted) {
      peak_queue_depth_ =
          std::max(peak_queue_depth_, static_cast<uint64_t>(queue_.size()));
    }
  }
  work_available_.notify_one();
  return true;
}

void ThreadPool::ParallelFor(ThreadPool* pool, size_t n,
                             const std::function<void(size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared with the helpers, which may outlive this call: a helper that
  // starts late finds every index claimed and never touches `fn`.
  struct Latch {
    std::atomic<size_t> next{1};  // index 0 is the caller's
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable all_done;
    size_t done = 0;  // guarded by mu

    void Finish(size_t ran) {
      if (ran == 0) return;
      std::lock_guard<std::mutex> lock(mu);
      done += ran;
      if (done == n) all_done.notify_all();
    }
    size_t RunClaimed() {
      size_t ran = 0;
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        (*fn)(i);
        ++ran;
      }
      return ran;
    }
  };
  auto latch = std::make_shared<Latch>();
  latch->n = n;
  latch->fn = &fn;
  const size_t helpers = std::min(n - 1, pool->workers_.size());
  for (size_t h = 0; h < helpers; ++h) {
    if (!pool->Enqueue(Task{[latch] { latch->Finish(latch->RunClaimed()); },
                            /*submitted=*/false})) {
      break;  // shut down: the caller claims the rest
    }
  }
  fn(0);
  latch->Finish(1 + latch->RunClaimed());
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->all_done.wait(lock, [&] { return latch->done == n; });
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return queue_.empty() && active_workers_ == 0; });
}

bool ThreadPool::IsIdle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() && active_workers_ == 0;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.tasks_executed = tasks_executed_;
  s.peak_queue_depth = peak_queue_depth_;
  s.parallel_tasks = parallel_tasks_;
  s.num_threads = static_cast<int>(workers_.size());
  return s;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutdown_ must be true: drain finished.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_workers_;
    }
    task.fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
      ++(task.submitted ? tasks_executed_ : parallel_tasks_);
      if (queue_.empty() && active_workers_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

}  // namespace slider
