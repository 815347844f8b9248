#ifndef CMP_COMMON_THREAD_POOL_H_
#define CMP_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cmp {

/// A fixed-size pool of worker threads with a shared task queue.
///
/// This is the library's only threading primitive: batch inference
/// partitions row blocks across it, parallel tree construction fans
/// per-attribute and per-shard work over it, and future subsystems
/// (concurrent serving) are expected to reuse it rather than spawn
/// ad-hoc threads. Tasks are arbitrary `void()` callables; the pool
/// never touches Dataset or tree state itself, so any synchronization
/// of shared results is the caller's job (ParallelFor hands each worker
/// a disjoint index range precisely so callers can write to pre-sized
/// output arrays without locks).
///
/// ParallelFor is a *task group*: the calling thread helps drain the
/// queue while it waits, so tasks may themselves call ParallelFor (or
/// Submit) on the same pool without deadlocking, and several threads
/// may run independent ParallelFor calls on one shared pool
/// concurrently (each blocks only on its own group). This is what lets
/// training and inference share a single process-wide pool instead of
/// oversubscribing the machine with one pool per call site.
///
/// Exceptions thrown by tasks are captured: ParallelFor rethrows the
/// first exception of its own group once every chunk has finished;
/// Wait() rethrows the first exception of plain Submit()ed tasks.
///
/// With `num_threads <= 1` the pool starts no workers and runs every
/// task inline on the calling thread, which keeps single-threaded
/// callers allocation- and lock-free and makes thread-count sweeps in
/// benchmarks uniform.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Workers available to split a ParallelFor across (1 for an inline
  /// pool). Deterministic sharding keys off this.
  int parallelism() const { return std::max(1, num_threads()); }

  /// Enqueues one task. Tasks may submit further tasks.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished (including
  /// tasks submitted by tasks), then rethrows the first exception any of
  /// them raised. Do not call from inside a task. For waiting on a
  /// bounded batch from anywhere (including inside tasks), use
  /// ParallelFor instead.
  void Wait();

  /// Splits `[0, n)` into contiguous chunks of at most `grain` elements,
  /// runs `fn(begin, end)` for each chunk across the pool, and blocks
  /// until all chunks are done, helping to run queued tasks in the
  /// meantime. `grain <= 0` picks one chunk per worker. When the range
  /// is one chunk (`n <= grain`), `fn(0, n)` runs on the calling thread
  /// with no queueing and no wake-up, and its exception propagates
  /// directly. Safe to call from inside pool tasks and from several
  /// threads at once.
  void ParallelFor(int64_t n, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  // Completion state of one ParallelFor call; guarded by mu_.
  struct Group {
    int64_t remaining = 0;
    std::exception_ptr error;
  };

  void WorkerLoop();
  // Runs one dequeued task, capturing stray exceptions into
  // first_error_ and maintaining pending_ / all_done_.
  void RunTask(std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  // Signaled on enqueue, group completion and shutdown. Workers and
  // ParallelFor helpers share it (helpers additionally watch their
  // group's `remaining`).
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  int64_t pending_ = 0;  // queued + currently executing tasks
  std::exception_ptr first_error_;  // first throw from a Submit()ed task
  bool stop_ = false;
};

}  // namespace cmp

#endif  // CMP_COMMON_THREAD_POOL_H_
