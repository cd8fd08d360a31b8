// The batch-queue thread pool and the Executor contract: completion
// barriers, exception propagation, nested parallel_for degradation,
// concurrent callers sharing one pool, and the run_indexed serial/parallel
// dispatch rule.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tabby::util {
namespace {

TEST(ThreadPool, DefaultJobsIsAtLeastOne) { EXPECT_GE(ThreadPool::default_jobs(), 1u); }

TEST(ThreadPool, ConcurrencyMatchesRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3u);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), ThreadPool::default_jobs());
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForIsABarrier) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 512;
  std::atomic<std::size_t> done{0};
  pool.parallel_for(kN, [&](std::size_t) { done.fetch_add(1, std::memory_order_relaxed); });
  // The call must not return until every index ran.
  EXPECT_EQ(done.load(), kN);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  // A nested parallel_for from a worker thread must not deadlock on the
  // pool's own barrier; it degrades to an inline loop.
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(inner_total.load(), 4u * 8u);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  // Two threads queue batches on one pool at once, as the daemon's
  // connection threads do on the engine's pool. One caller's batches throw:
  // each rethrow must reach that caller, and the other's batches must run
  // every index.
  ThreadPool pool(3);
  constexpr std::size_t kN = 2'000;
  constexpr int kBatches = 50;
  std::vector<std::atomic<int>> hits(kN);
  int rethrows = 0;
  std::thread clean([&] {
    for (int b = 0; b < kBatches; ++b) {
      pool.parallel_for(kN,
                        [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    }
  });
  std::thread throwing([&] {
    for (int b = 0; b < kBatches; ++b) {
      try {
        pool.parallel_for(kN, [](std::size_t i) {
          if (i == 1'000) throw std::runtime_error("boom");
        });
      } catch (const std::runtime_error&) {
        ++rethrows;
      }
    }
  });
  clean.join();
  throwing.join();
  EXPECT_EQ(rethrows, kBatches);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), kBatches) << "index " << i;
  }
}

TEST(ThreadPool, WorkIsActuallyDistributed) {
  // With more threads than one and many small tasks, at least two distinct
  // threads should run work (not a strict guarantee in theory, but with 4
  // workers and 1000 tasks the chance of a single-thread monopoly is nil).
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  pool.parallel_for(1000, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 4u);
}

TEST(RunIndexed, NullExecutorRunsInlineInOrder) {
  std::vector<std::size_t> order;
  run_indexed(nullptr, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(RunIndexed, SingleWorkerExecutorStaysSerial) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  run_indexed(&pool, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(RunIndexed, PoolExecutorCoversAllIndexes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  run_indexed(&pool, hits.size(),
              [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  long total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 257);
}

}  // namespace
}  // namespace tabby::util
