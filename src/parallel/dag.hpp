#pragma once
// Dynamic task-DAG execution on a ThreadPool.
//
// TaskGroup tracks a set of tasks that may spawn further tasks into the
// same group (continuation style): a parse task spawns per-chunk embed
// tasks the moment its document is chunked, a question task spawns its
// three trace-mode tasks the moment the record is accepted.  wait()
// returns once the transitive set has drained.
//
// Deadlock discipline: tasks must only *spawn* — they never block on
// the group (the pool would otherwise starve when every worker waits on
// work only a worker can run).  The single wait() lives on the caller's
// thread, outside the pool.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>

#include "parallel/thread_pool.hpp"

namespace mcqa::parallel {

class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Run `fn` on the pool as part of this group.  Safe to call from
  /// inside a group task: the parent's own pending count keeps the
  /// group open until it returns, so the count can never hit zero
  /// between a parent observing data and spawning its continuation.
  void spawn(std::function<void()> fn) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
    }
    pool_.enqueue([this, fn = std::move(fn)]() {
      fn();
      // Decrement and notify under the lock: a waiter sees zero only
      // after this task's last touch of the group, so it may destroy
      // the group the moment wait() returns.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) cv_.notify_all();
    });
  }

  /// Block until every spawned task (including tasks spawned by tasks)
  /// has finished.  Call from outside the pool only.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this]() { return pending_ == 0; });
  }

 private:
  ThreadPool& pool_;
  std::mutex mutex_;
  std::size_t pending_ = 0;  ///< guarded by mutex_
  std::condition_variable cv_;
};

}  // namespace mcqa::parallel
