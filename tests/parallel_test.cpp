// Unit tests for the parallel substrate: thread pool and bounded queue.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "parallel/bounded_queue.hpp"
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

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) q.push(i);
  for (int i = 0; i < 10; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueue, PopAfterCloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, PushAfterCloseRejected) {
  BoundedQueue<int> q(4);
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueue, TryPopNonBlocking) {
  BoundedQueue<int> q(4);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(5);
  EXPECT_EQ(q.try_pop(), 5);
}

TEST(BoundedQueue, BackpressureBlocksUntilConsumed) {
  BoundedQueue<int> q(2);
  q.push(1);
  q.push(2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(3);  // blocks until a pop frees capacity
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) sum.fetch_add(*v);
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(),
            static_cast<long>(kProducers) * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(BoundedQueue, CloseUnblocksProducersBlockedOnFull) {
  BoundedQueue<int> q(1);
  q.push(0);  // queue now full
  std::atomic<int> dropped{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      if (!q.push(99)) dropped.fetch_add(1);  // blocked until close
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();  // must wake every blocked producer promptly
  for (auto& t : producers) t.join();
  EXPECT_EQ(dropped.load(), 3);
  EXPECT_EQ(q.pop(), 0);  // the pre-close item still drains
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseUnblocksConsumersBlockedOnEmpty) {
  BoundedQueue<int> q(4);
  std::atomic<int> ended{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      if (!q.pop().has_value()) ended.fetch_add(1);  // blocked until close
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(ended.load(), 3);
}

/// Shutdown mid-stream must lose nothing already accepted and duplicate
/// nothing: every push that returned true is popped exactly once.
void shutdown_no_loss_no_dup(int producers, int consumers) {
  BoundedQueue<int> q(4);
  constexpr int kPerProducer = 400;
  std::atomic<long> accepted_sum{0};
  std::atomic<long> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i + 1;
        if (q.push(v)) {
          accepted_sum.fetch_add(v);
        } else {
          return;  // closed under us — everything after is rejected too
        }
      }
    });
  }
  std::vector<std::thread> drains;
  for (int c = 0; c < consumers; ++c) {
    drains.emplace_back([&] {
      while (auto v = q.pop()) {
        popped_sum.fetch_add(*v);
        popped_count.fetch_add(1);
      }
    });
  }
  // Close while producers are (likely) mid-stream; any interleaving is
  // acceptable as long as the accounting balances.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  for (auto& t : threads) t.join();
  for (auto& t : drains) t.join();
  EXPECT_EQ(popped_sum.load(), accepted_sum.load());
  EXPECT_LE(popped_count.load(), producers * kPerProducer);
}

TEST(BoundedQueue, ShutdownNoLossNoDupOneThread) {
  shutdown_no_loss_no_dup(1, 1);
}

TEST(BoundedQueue, ShutdownNoLossNoDupTwoThreads) {
  shutdown_no_loss_no_dup(2, 2);
}

TEST(BoundedQueue, ShutdownNoLossNoDupEightThreads) {
  shutdown_no_loss_no_dup(8, 8);
}

}  // namespace
}  // namespace mcqa::parallel
