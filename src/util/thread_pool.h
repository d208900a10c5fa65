// Fixed-size thread pool shared by the parallel construction pipeline and
// the batch fan-out.
//
// The WC-INDEX build dispatches one task per root within a rank batch and
// barriers between batches (Submit + Wait); a persistent pool avoids paying
// thread spawn cost per batch (batches can be as small as the thread
// count). Tasks receive the index of the worker executing them, so callers
// can hand each worker its own scratch state (BuildWorkspace) without
// synchronization.
//
// RunChunked is the fan-out the serving engine and BatchQuery use.
// ThreadPool::Wait waits for GLOBAL quiescence, which is wrong for a
// serving engine: two user threads batching against the same engine would
// each block on the other's work. RunChunked instead keeps its own claim
// counter, and the submitting thread drains its own batch: it claims
// chunks alongside the pool's helpers and only waits for chunks a helper
// has already claimed. A batch therefore computes on up to size() + 1
// threads, concurrent batches share the pool's workers but complete
// independently, and a batch finishes even while every worker is busy
// elsewhere.

#ifndef WCSD_UTIL_THREAD_POOL_H_
#define WCSD_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wcsd {

/// Fixed pool of worker threads executing submitted tasks FIFO. Submit is
/// safe from any thread; Wait waits for every task of every submitter, so
/// it suits a single controller thread (the build pipeline).
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
/// blocks until every chunk has run. The calling thread runs chunks itself
/// under worker index `pool->size()`; pool workers pass their own index in
/// [0, pool->size()). At most hardware_concurrency() workers help, so a
/// batch computes on at most one thread more than the machine has CPUs: a
/// larger pool (8 workers on 4 CPUs) only time-slices, while that one
/// extra thread measured faster than none on a 4-CPU host. Concurrent callers share the caller's index, so fn
/// may use the worker index only for state it updates with relaxed atomics,
/// never as exclusive scratch. With a null pool or a single chunk the call
/// is inline (worker 0). Safe to call from multiple threads on one pool
/// concurrently.
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
  // Helpers hold the claim state by shared_ptr: one dequeued after the
  // caller returned claims an index past the end and never touches `fn`,
  // which lives on the caller's stack.
  struct Claims {
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    size_t n = 0, chunk = 0, num_chunks = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> finished{0};
    std::mutex mu;
    bool all_done = false;  // guarded by mu
    std::condition_variable done;

    // Runs chunks until none is left to claim.
    void Drain(size_t worker) {
      for (size_t c = next.fetch_add(1, std::memory_order_relaxed);
           c < num_chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
        const size_t begin = c * chunk;
        (*fn)(begin, std::min(n, begin + chunk), worker);
        if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            num_chunks) {
          std::lock_guard<std::mutex> lock(mu);
          all_done = true;
          done.notify_one();
        }
      }
    }
  };
  auto claims = std::make_shared<Claims>();
  claims->fn = &fn;
  claims->n = n;
  claims->chunk = chunk;
  claims->num_chunks = num_chunks;
  static const size_t max_helpers = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::numeric_limits<size_t>::max() : size_t{hw};
  }();
  const size_t helpers =
      std::min({pool->size(), num_chunks - 1, max_helpers});
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([claims](size_t worker) { claims->Drain(worker); });
  }
  claims->Drain(pool->size());
  std::unique_lock<std::mutex> lock(claims->mu);
  claims->done.wait(lock, [&] { return claims->all_done; });
}

}  // namespace wcsd

#endif  // WCSD_UTIL_THREAD_POOL_H_
