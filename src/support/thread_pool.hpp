// Fixed-size worker pool: evaluates GA individuals in parallel, and through
// the one process-wide shared() instance runs a suite's benchmarks at once.
//
// The pool is deliberately minimal: submit() returns a std::future, and
// parallel_for() provides the common "independent index range" pattern with
// deterministic result placement (slot i of the output belongs to index i,
// regardless of which worker ran it).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ith {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// The process-wide pool (hardware_concurrency workers), built on first
  /// use, so a process that never asks for it starts no threads. A task run
  /// on it must never wait on it: with every worker blocked, nothing would
  /// run the tasks they wait for.
  static ThreadPool& shared();

  /// Enqueues a task; the future reports its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// complete. Exceptions from any index are rethrown (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace ith
