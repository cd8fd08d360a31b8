// The parallel execution substrate for the pipeline. Two pieces:
//
//   - Executor: the minimal interface the analysis/cpg/finder stages program
//     against. `parallel_for(n, fn)` runs fn(0..n-1) and returns when every
//     index finished. A null Executor* means "run inline in index order" —
//     the `--jobs 1` path, byte-identical to the historical single-threaded
//     pipeline.
//   - ThreadPool: the one implementation. A parallel_for call is a batch of
//     chunks that waits in one FIFO; idle workers claim its chunks in order
//     while the caller sleeps until the last one finishes.
//
// Every parallel stage in the pipeline is written as: compute immutable
// per-item results with parallel_for, then publish/instantiate them in a
// deterministic serial order. The Executor therefore never needs futures or
// task dependencies; parallel_for's barrier is the only synchronisation
// primitive the callers use. See docs/CONCURRENCY.md.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tabby::util {

/// Abstract parallel-for provider. Stages accept `Executor*` and treat
/// nullptr as "serial"; use `run_indexed` for the common call pattern.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Number of threads that may run tasks concurrently (>= 1).
  virtual unsigned concurrency() const = 0;

  /// Runs fn(i) for every i in [0, n) and returns once all completed.
  /// Index-to-thread assignment is unspecified; fn must not assume order.
  /// Exceptions thrown by fn are rethrown (one of them) in the caller.
  virtual void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) = 0;
};

/// Runs a loop through `executor` when present, inline (in index order)
/// otherwise. The universal "maybe parallel" entry point.
inline void run_indexed(Executor* executor, std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  if (executor != nullptr && executor->concurrency() > 1 && n > 1) {
    executor->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

/// A fixed set of worker threads serving parallel_for batches, first come
/// first served. Several threads may call parallel_for on one pool at once
/// (the daemon's connections share the engine's pool).
class ThreadPool final : public Executor {
 public:
  /// Spawns `threads` workers; 0 means default_jobs().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned concurrency() const override { return static_cast<unsigned>(threads_.size()); }

  /// Splits [0, n) into at most 4 chunks per worker, queues them as one
  /// batch and sleeps until the workers have run them all; the first
  /// exception a chunk threw is then rethrown. Called from a pool worker
  /// (nested parallelism), on a 1-thread pool or with n < 2 it runs inline
  /// instead.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) override;

  /// The `--jobs` default: hardware_concurrency, floored at 1.
  static unsigned default_jobs();

 private:
  struct Batch;

  void worker_loop(unsigned self);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  // Workers wait here for a batch; callers wait here for theirs to finish.
  std::condition_variable cv_;
  std::deque<Batch*> batches_;  // batches with unclaimed chunks, oldest first
  bool stop_ = false;
};

}  // namespace tabby::util
