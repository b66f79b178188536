// ThreadPool::parallel_for error handling: exceptions from worker indices
// must propagate to the caller (exactly one wins), every non-throwing index
// must still have run by the time parallel_for returns, and the pool must
// stay usable afterwards. A parallel_for issued from a task of the same
// pool must complete instead of deadlocking it (ctest gives these tests a
// timeout, so a regression fails rather than hangs).
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace ith {
namespace {

TEST(ThreadPoolErrors, ParallelForPropagatesExceptionUnderContention) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  bool caught = false;
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i % 8 == 3) throw Error("worker " + std::to_string(i) + " failed");
    });
  } catch (const Error& e) {
    caught = true;
    EXPECT_NE(std::string(e.what()).find("failed"), std::string::npos);
  }
  EXPECT_TRUE(caught);
  // parallel_for blocks for ALL indices even when some throw: no task may
  // still be running (or silently skipped) once it returns.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolErrors, PoolUsableAfterException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(8, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The workers survived the failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(32, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolErrors, NonStdExceptionIsStillPropagated) {
  ThreadPool pool(2);
  bool caught = false;
  try {
    pool.parallel_for(4, [](std::size_t i) {
      if (i == 2) throw 17;  // not derived from std::exception
    });
  } catch (int v) {
    caught = true;
    EXPECT_EQ(v, 17);
  }
  EXPECT_TRUE(caught);
}

TEST(ThreadPoolNesting, ParallelForFromOwnWorkerRunsInline) {
  // One worker, busy running the outer task: a nested batch queued behind
  // it could never start.
  ThreadPool pool(1);
  std::vector<std::size_t> slots(2, 99);
  pool.parallel_for(1, [&](std::size_t) {
    pool.parallel_for(slots.size(), [&](std::size_t i) { slots[i] = i; });
  });
  EXPECT_EQ(slots, (std::vector<std::size_t>{0, 1}));
}

TEST(ThreadPoolNesting, EveryWorkerNestingCompletesAndKeepsErrors) {
  ThreadPool pool(2);
  std::vector<std::vector<int>> seen(4, std::vector<int>(3, 0));
  std::atomic<int> caught{0};
  pool.parallel_for(seen.size(), [&](std::size_t outer) {
    try {
      pool.parallel_for(3, [&](std::size_t i) {
        seen[outer][i] = static_cast<int>(outer * 10 + i);
        if (i >= 1) throw Error("inner " + std::to_string(i));
      });
    } catch (const Error& e) {
      // Every index ran, and the lowest failing one is reported.
      if (std::string(e.what()).find("inner 1") != std::string::npos) caught.fetch_add(1);
    }
  });
  EXPECT_EQ(caught.load(), 4);
  for (std::size_t outer = 0; outer < seen.size(); ++outer) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(seen[outer][i], static_cast<int>(outer * 10 + i));
    }
  }
}

TEST(ThreadPoolNesting, OtherPoolsWorkersStillFanOut) {
  // Only a worker's own pool runs inline; a task of one pool may wait on
  // another, as GA workers wait on the shared pool's benchmark runs.
  ThreadPool outer(1);
  ThreadPool inner(2);
  std::atomic<int> on_inner{0};
  outer.parallel_for(1, [&](std::size_t) {
    const std::thread::id caller = std::this_thread::get_id();
    inner.parallel_for(8, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) on_inner.fetch_add(1);
    });
  });
  EXPECT_EQ(on_inner.load(), 8);
}

}  // namespace
}  // namespace ith
