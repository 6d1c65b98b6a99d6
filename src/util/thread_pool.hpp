#pragma once
/// \file thread_pool.hpp
/// Fixed-size worker pool with *sharded* FIFO queues: tasks submitted with
/// the same shard key run on one worker in submission order, tasks with
/// different keys run concurrently. The sharded access engine submits one
/// task per worker; the workers hand simulated cores to each other in
/// chunks (System::step_parallel), so per-core state has one writer at a
/// time and results are independent of how many OS threads run them.

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tmprof::util {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (>= 1).
  explicit ThreadPool(std::uint32_t n_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Waits for queued work, then joins the workers. Any task exception
  /// still pending (wait_idle never called) is swallowed here — call
  /// wait_idle() to observe failures.
  ~ThreadPool();

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Enqueue `fn` on the worker owning `shard` (shard % size()). Tasks that
  /// share a shard key execute in submission order; nothing else is ordered.
  void submit(std::size_t shard, std::function<void()> fn);

  /// Block until every submitted task has finished. If any task threw, the
  /// first captured exception is rethrown (subsequent ones are dropped) and
  /// the pool remains usable. Returns immediately when nothing is pending.
  void wait_idle();

  /// Run fn(0..n-1), one task per index sharded by the index, then
  /// wait_idle(). Convenience barrier for per-core fan-out.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Worker {
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
    std::condition_variable cv;
    bool stop = false;  ///< guarded by `mutex`
  };

  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::uint64_t pending_ = 0;       ///< guarded by done_mutex_
  std::exception_ptr first_error_;  ///< guarded by done_mutex_
};

}  // namespace tmprof::util
