#include "support/thread_pool.hpp"

#include <algorithm>

namespace ith {

namespace {

/// The pool whose worker is running on this thread; null off the workers.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  // A task of this pool waiting on this pool would block a worker the
  // queued indices may need; with every worker waiting, none would run.
  // So a nested call runs its indices here, with the same placement and
  // error rule.
  const bool nested = t_worker_of == this;
  std::vector<std::future<void>> futures;
  if (!nested) {
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(submit([&fn, i] { fn(i); }));
    }
  }
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      if (nested) {
        fn(i);
      } else {
        futures[i].get();
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ith
