#include "util/thread_pool.hpp"

#include "util/assert.hpp"

namespace tmprof::util {

ThreadPool::ThreadPool(std::uint32_t n_threads) {
  TMPROF_EXPECTS(n_threads >= 1);
  queues_.reserve(n_threads);
  for (std::uint32_t i = 0; i < n_threads; ++i) {
    queues_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(n_threads);
  for (std::uint32_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& worker : queues_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    worker->stop = true;
    worker->cv.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::size_t shard, std::function<void()> fn) {
  TMPROF_EXPECTS(fn != nullptr);
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    ++pending_;
  }
  Worker& worker = *queues_[shard % queues_.size()];
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.queue.push_back(std::move(fn));
  }
  worker.cv.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    submit(i, [&fn, i] { fn(i); });
  }
  wait_idle();
}

void ThreadPool::worker_loop(std::size_t index) {
  Worker& worker = *queues_[index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.cv.wait(lock,
                     [&] { return worker.stop || !worker.queue.empty(); });
      // Drain remaining tasks even when stopping so wait_idle counts settle.
      if (worker.queue.empty()) return;
      task = std::move(worker.queue.front());
      worker.queue.pop_front();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      if (error && !first_error_) first_error_ = error;
      --pending_;
      if (pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace tmprof::util
