#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace mcqa::parallel {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    queues_[q]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t id, std::function<void()>& task) {
  // Own queue first (LIFO for locality)...
  {
    auto& q = *queues_[id];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // ...then steal from victims (FIFO end, classic Chase-Lev discipline).
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    auto& victim = *queues_[(id + offset) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  std::function<void()> task;
  for (;;) {
    if (try_pop(id, task)) {
      task();
      task = nullptr;
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Take the lock so a waiter can't check the predicate and then
        // miss this notification (classic lost-wakeup window).
        std::lock_guard<std::mutex> lock(wake_mutex_);
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_.load(std::memory_order_acquire)) return;
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) {
    // Aim for ~4 blocks per worker to balance load vs dispatch cost.
    grain = std::max<std::size_t>(1, n / (pool.thread_count() * 4));
  }
  const std::size_t blocks = (n + grain - 1) / grain;
  if (blocks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = begin + b * grain;
    const std::size_t hi = std::min(end, lo + grain);
    futs.push_back(pool.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }));
  }
  // Wait for every block before rethrowing the first exception: a block
  // still running after parallel_for returned would call `body` after
  // the caller destroyed it.
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace mcqa::parallel
