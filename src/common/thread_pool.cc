#include "common/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace cmp {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads == 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (num_threads <= 1) return;  // inline pool: tasks run on the caller
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++pending_;
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!workers_.empty()) {
    all_done_.wait(lock, [this] { return pending_ == 0; });
  }
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::ParallelFor(int64_t n, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  if (grain <= 0) {
    grain = (n + parallelism() - 1) / parallelism();
  }
  // One chunk (or no workers): run it here. Queueing it would only make
  // a worker wake up to run what the caller then waits for.
  if (workers_.empty() || n <= grain) {
    fn(0, n);
    return;
  }
  auto group = std::make_shared<Group>();
  {
    std::unique_lock<std::mutex> lock(mu_);
    group->remaining = (n + grain - 1) / grain;
    for (int64_t begin = 0; begin < n; begin += grain) {
      const int64_t end = std::min(begin + grain, n);
      queue_.push([this, group, &fn, begin, end] {
        std::exception_ptr err;
        try {
          fn(begin, end);
        } catch (...) {
          err = std::current_exception();
        }
        std::lock_guard<std::mutex> guard(mu_);
        if (err && !group->error) group->error = err;
        // Group completion must wake helpers whose predicate watches
        // `remaining`, which only work_ready_ covers.
        if (--group->remaining == 0) work_ready_.notify_all();
      });
      ++pending_;
    }
  }
  work_ready_.notify_all();

  // Help drain the queue until this group's chunks have all finished.
  // Running other callers' (or nested groups') tasks here is what makes
  // ParallelFor safe to call from inside tasks: a waiting thread always
  // makes progress instead of holding a worker slot idle.
  std::unique_lock<std::mutex> lock(mu_);
  while (group->remaining != 0) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop();
      lock.unlock();
      RunTask(task);
      lock.lock();
      continue;
    }
    work_ready_.wait(lock, [this, &group] {
      return group->remaining == 0 || !queue_.empty();
    });
  }
  if (group->error) {
    std::exception_ptr err = group->error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::RunTask(std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    // Group tasks catch internally, so anything landing here came from a
    // plain Submit(); surface it at the next Wait().
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) all_done_.notify_all();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    RunTask(task);
  }
}

}  // namespace cmp
