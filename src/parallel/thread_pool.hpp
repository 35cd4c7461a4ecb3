#pragma once
// Work-stealing thread pool.
//
// The paper scales its pipeline with Parsl across ALCF nodes; our
// shared-memory equivalent is a pool of workers with per-worker deques
// and random stealing.  All pipeline stages (parsing, chunking,
// embedding, question generation, evaluation) submit tasks here, and the
// scaling bench (S1 in DESIGN.md) measures throughput against worker
// count.
//
// Determinism note: tasks themselves must be deterministic (each owns a
// forked Rng keyed by item id); the pool only changes *when* work runs,
// never *what* it computes.
//
// Ownership rule: there is no process-wide pool.  Every pool comes from
// the caller, so a build or training run at `threads = N` runs on N
// workers.  Nested parallel work (parallel_for, a TaskGroup wait) starts
// only from the caller's thread, never from inside a task of the pool
// it would wait on (parallel/dag.hpp).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcqa::parallel {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Submit any callable; returns a future for its result.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         ... as = std::forward<Args>(args)]() mutable {
          return std::invoke(std::move(fn), std::move(as)...);
        });
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

  /// Fire-and-forget.
  void enqueue(std::function<void()> task);

  /// Block until every submitted task (including tasks submitted by
  /// tasks) has finished.
  void wait_idle();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t id);
  bool try_pop(std::size_t id, std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;

  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
};

/// Parallel for over [begin, end) with automatic grain sizing.  Blocks
/// until every block is done, then rethrows the first block's exception
/// (in block order), if any.  `body(i)` must be safe to run
/// concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 0);

/// Map items through `fn` in parallel, preserving order.
template <typename In, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<In>& items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, const In&>> {
  using Out = std::invoke_result_t<Fn, const In&>;
  std::vector<Out> out(items.size());
  parallel_for(pool, 0, items.size(),
               [&](std::size_t i) { out[i] = fn(items[i]); });
  return out;
}

}  // namespace mcqa::parallel
