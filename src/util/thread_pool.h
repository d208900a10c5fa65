// Minimal fixed-size thread pool for the parallel construction pipeline.
//
// The WC-INDEX build dispatches one task per root within a rank batch and
// barriers between batches; a persistent pool avoids paying thread spawn
// cost per batch (batches can be as small as the thread count). Tasks
// receive the index of the worker executing them, so callers can hand each
// worker its own scratch state (BuildWorkspace) without synchronization.
//
// RunChunked is the fan-out the serving engine and BatchQuery use.
// ThreadPool::Wait waits for GLOBAL quiescence, which is wrong for a
// serving engine: two user threads batching against the same engine would
// each block on the other's work. RunChunked instead counts down its own
// chunks on the caller's stack, so concurrent batches share the pool's
// workers but complete independently.

#ifndef WCSD_UTIL_THREAD_POOL_H_
#define WCSD_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wcsd {

/// Fixed pool of worker threads executing submitted tasks FIFO. Submit and
/// Wait are intended to be called from one controller thread.
class ThreadPool {
 public:
  /// A unit of work; receives the executing worker's index in
  /// [0, num_threads).
  using Task = std::function<void(size_t worker)>;

  explicit ThreadPool(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(Task task) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
      ++unfinished_;
    }
    task_ready_.notify_one();
  }

  /// Blocks until every submitted task has finished executing.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return unfinished_ == 0; });
  }

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker) {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stopping_ with a drained queue
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task(worker);
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--unfinished_ == 0) all_done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<Task> tasks_;
  size_t unfinished_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Applies `fn(begin, end, worker)` to consecutive chunks of [0, n) and
/// blocks until every chunk has run. With a null pool or a single chunk the
/// call is inline (worker 0). Safe to call from multiple threads on one
/// pool concurrently.
inline void RunChunked(
    ThreadPool* pool, size_t n, size_t chunk,
    const std::function<void(size_t begin, size_t end, size_t worker)>& fn) {
  if (n == 0) return;
  chunk = std::max<size_t>(1, chunk);
  const size_t num_chunks = (n + chunk - 1) / chunk;
  if (pool == nullptr || num_chunks <= 1) {
    fn(0, n, 0);
    return;
  }
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(n, begin + chunk);
    pool->Submit([&, begin, end](size_t worker) {
      fn(begin, end, worker);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace wcsd

#endif  // WCSD_UTIL_THREAD_POOL_H_
