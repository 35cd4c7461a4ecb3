// Unit tests for the parallel substrate: thread pool, parallel-for and
// parallel-map.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "parallel/thread_pool.hpp"

namespace mcqa::parallel {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(4);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitWithArguments) {
  ThreadPool pool(2);
  auto fut = pool.submit([](int a, int b) { return a + b; }, 20, 22);
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.enqueue([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, NestedEnqueueCounted) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.enqueue([&] {
      count.fetch_add(1);
      pool.enqueue([&count] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadCountDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, CoversExactRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { ran = true; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::logic_error("bad index");
                   },
                   /*grain=*/1),
      std::logic_error);
}

TEST(ParallelFor, ExceptionWaitsForEveryBlock) {
  // Block 0 throws at once while the other blocks sleep: the call must
  // not return, and destroy `body`, before they have finished.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(
      parallel_for(pool, 0, 16,
                   [&finished](std::size_t i) {
                     if (i == 0) throw std::logic_error("first block");
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     finished.fetch_add(1);
                   },
                   /*grain=*/1),
      std::logic_error);
  EXPECT_EQ(finished.load(), 15);
}

TEST(ParallelMap, PreservesOrder) {
  ThreadPool pool(4);
  std::vector<int> in(200);
  std::iota(in.begin(), in.end(), 0);
  const auto out = parallel_map(pool, in, [](const int& x) { return x * x; });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

}  // namespace
}  // namespace mcqa::parallel
