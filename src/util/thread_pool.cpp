#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "util/failpoint.hpp"

namespace tabby::util {

namespace {

/// Set on pool worker threads; parallel_for uses it to detect nested calls
/// (which run inline instead of waiting on their own workers).
thread_local bool t_inside_pool_worker = false;

}  // namespace

/// One parallel_for call, on its caller's stack. `next`, `unfinished` and
/// `error` are guarded by the pool mutex; the other fields never change.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn;
  std::size_t n;
  std::size_t grain;         // indexes per chunk (the last may have fewer)
  std::size_t chunks;
  std::size_t next;          // the next chunk to claim
  std::size_t unfinished;    // chunks not yet run to the end
  std::exception_ptr error;  // the first exception a chunk threw
};

unsigned ThreadPool::default_jobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  unsigned count = std::max(1u, threads == 0 ? default_jobs() : threads);
  threads_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(unsigned self) {
  t_inside_pool_worker = true;
  // One trace track per worker: spans recorded on this thread land on the
  // "worker-N" track in the Chrome trace export.
  obs::set_thread_name("worker-" + std::to_string(self));
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !batches_.empty(); });
    if (batches_.empty()) return;  // stopping, and no caller is waiting
    Batch& batch = *batches_.front();
    std::size_t first = batch.next++ * batch.grain;
    if (batch.next == batch.chunks) batches_.pop_front();
    lock.unlock();

    std::exception_ptr error;
    try {
      // Chaos seam: a lost/crashed worker task surfaces exactly like a
      // throwing fn — rethrown at the parallel_for caller, never swallowed.
      if (failpoint::poll("pool.task")) {
        throw std::runtime_error("failpoint: injected worker task failure");
      }
      std::size_t last = std::min(batch.n, first + batch.grain);
      for (std::size_t i = first; i < last; ++i) (*batch.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    if (error && !batch.error) batch.error = std::move(error);
    // The caller may return as soon as the lock is released: do not touch
    // the batch after this.
    if (--batch.unfinished == 0) cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (t_inside_pool_worker || threads_.size() == 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Several chunks per worker even out uneven items at a negligible
  // per-chunk cost.
  std::size_t chunks = std::min<std::size_t>(n, threads_.size() * 4);
  std::size_t grain = (n + chunks - 1) / chunks;
  chunks = (n + grain - 1) / grain;
  Batch batch{&fn, n, grain, chunks, 0, chunks, nullptr};

  std::unique_lock<std::mutex> lock(mutex_);
  batches_.push_back(&batch);
  cv_.notify_all();
  cv_.wait(lock, [&batch] { return batch.unfinished == 0; });
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace tabby::util
