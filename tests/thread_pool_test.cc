#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace slider {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.stats().tasks_executed, 100u);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenIfZeroRequested) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran = true; });
  pool.WaitIdle();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, WaitIdleCoversTasksSpawnedByTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  // A task that recursively submits follow-up work, like a rule execution
  // whose inferences trigger further rule executions.
  std::function<void(int)> cascade = [&](int depth) {
    count.fetch_add(1);
    if (depth > 0) {
      pool.Submit([&, depth] { cascade(depth - 1); });
      pool.Submit([&, depth] { cascade(depth - 1); });
    }
  };
  pool.Submit([&] { cascade(5); });
  pool.WaitIdle();
  // A full binary cascade of depth 5: 2^6 - 1 executions.
  EXPECT_EQ(count.load(), 63);
}

TEST(ThreadPoolTest, ShutdownDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedNotFatal) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.Submit([&] { count.fetch_add(1); }));
  pool.Shutdown();
  // A submit racing (or following) shutdown is dropped gracefully — the old
  // behaviour was a SLIDER_CHECK crash.
  EXPECT_FALSE(pool.Submit([&] { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SubmitsRacingShutdownNeverCrash) {
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  ThreadPool pool(2);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        if (pool.Submit([] {})) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  pool.Shutdown();
  for (auto& th : submitters) th.join();
  // Every accepted task ran (Shutdown drains); every other submit was
  // rejected cleanly.
  EXPECT_EQ(accepted.load() + rejected.load(), 2000);
  EXPECT_EQ(pool.stats().tasks_executed,
            static_cast<uint64_t>(accepted.load()));
}

TEST(ThreadPoolTest, StatsTrackPeakQueueDepth) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.Submit([&] {
    while (!release) std::this_thread::yield();
  });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([] {});
  }
  EXPECT_GE(pool.stats().peak_queue_depth, 10u);
  release = true;
  pool.WaitIdle();
  EXPECT_EQ(pool.stats().tasks_executed, 11u);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(3);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnceAndCountsApart) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool::ParallelFor(&pool, hits.size(),
                          [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  pool.WaitIdle();
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 0u);
  EXPECT_LE(stats.parallel_tasks, 4u);
}

TEST(ThreadPoolTest, ParallelForWithoutAPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ThreadPool::ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  ThreadPool::ParallelFor(nullptr, 0, [&](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForCallerRunsIndexZero) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_zero;
  ThreadPool::ParallelFor(&pool, 8, [&](size_t i) {
    if (i == 0) ran_zero = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_zero, caller);
}

TEST(ThreadPoolTest, ParallelForNestsAndSurvivesBusyWorkers) {
  // Every worker blocked: the caller must finish the loop alone.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      while (!release) std::this_thread::yield();
    });
  }
  std::atomic<int> count{0};
  ThreadPool::ParallelFor(&pool, 100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  release = true;
  // Nested loops, deeper than the pool is wide.
  count = 0;
  ThreadPool::ParallelFor(&pool, 4, [&](size_t) {
    ThreadPool::ParallelFor(&pool, 4, [&](size_t) {
      ThreadPool::ParallelFor(&pool, 4,
                              [&](size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 64);
  pool.WaitIdle();
  EXPECT_EQ(pool.stats().tasks_executed, 2u);
}

TEST(ThreadPoolTest, ParallelForAfterShutdownRunsOnTheCaller) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> count{0};
  ThreadPool::ParallelFor(&pool, 10, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

}  // namespace
}  // namespace slider
