// A small fixed-size thread pool with a blocking parallel-for primitive.
// Built for the level-by-level waves of EvalContext::EvalAll
// (partition/eval_context.*): the caller partitions an index range into
// contiguous bands, every band runs on its own worker, and ParallelFor
// returns only after the last band finishes — the join is the barrier
// that separates one DAG level from the next.
//
// Thread-compatibility: a ThreadPool may be driven by one thread at a
// time; the closures submitted through it run concurrently with each
// other but never with the caller, which blocks until the batch drains.

#ifndef PSEM_UTIL_THREAD_POOL_H_
#define PSEM_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psem {

/// Fixed set of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1). Propagates
  /// std::system_error if the OS refuses to create a thread.
  explicit ThreadPool(std::size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    try {
      for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    } catch (...) {
      // Join whatever did spawn before letting the error escape, so a
      // partial pool never leaks running threads.
      {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
      }
      wake_workers_.notify_all();
      for (auto& w : workers_) w.join();
      throw;
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_workers_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Splits [0, n) into at most num_threads() contiguous bands and runs
  /// `fn(band, begin, end)` for each, in parallel. Blocks until every
  /// band has completed — the return is a full barrier, so a subsequent
  /// ParallelFor observes all writes made by this one.
  ///
  /// Bands are deterministic for a given (n, num_threads): band b covers
  /// [b*ceil(n/B), min(n, (b+1)*ceil(n/B))). fn must not touch the pool.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t band, std::size_t begin,
                                            std::size_t end)>& fn) {
    if (n == 0) return;
    const std::size_t bands =
        std::min(n, static_cast<std::size_t>(workers_.size()));
    if (bands == 1) {
      fn(0, 0, n);
      return;
    }
    const std::size_t chunk = (n + bands - 1) / bands;
    std::size_t pending = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t b = 0; b < bands; ++b) {
        std::size_t begin = b * chunk;
        std::size_t end = std::min(n, begin + chunk);
        if (begin >= end) continue;
        queue_.emplace_back([&fn, b, begin, end] { fn(b, begin, end); });
        ++pending;
      }
      batch_pending_ += pending;
    }
    wake_workers_.notify_all();
    // Wait for the whole batch: the barrier between sweep phases.
    std::unique_lock<std::mutex> lock(mu_);
    batch_done_.wait(lock, [this] { return batch_pending_ == 0; });
  }

 private:
  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_workers_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--batch_pending_ == 0) batch_done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable wake_workers_;
  std::condition_variable batch_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t batch_pending_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace psem

#endif  // PSEM_UTIL_THREAD_POOL_H_
