#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cmp {
namespace {

TEST(ThreadPool, InlinePoolRunsTasksOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });
  pool.Wait();
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(ran.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const int64_t n = 10001;
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, 64, [&hits](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, ParallelForDefaultGrainAndEmptyRange) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, 0, [&sum](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
  pool.ParallelFor(0, 8, [](int64_t, int64_t) { FAIL(); });
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ZeroAndSingleItemParallelFor) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    pool.ParallelFor(0, 1, [](int64_t, int64_t) { FAIL(); });
    std::atomic<int> calls{0};
    pool.ParallelFor(1, 16, [&calls](int64_t begin, int64_t end) {
      EXPECT_EQ(begin, 0);
      EXPECT_EQ(end, 1);
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1) << threads << " threads";
  }
}

// A range that fits in one chunk runs on the calling thread at once: it
// neither waits for a worker nor first runs tasks queued ahead of it.
// Every worker is held and one more task waits in the queue, so a chunk
// that went through the queue would run after that task (whose bounded
// wait keeps such a regression from hanging the test).
TEST(ThreadPool, OneChunkParallelForRunsOnTheCaller) {
  ThreadPool pool(2);
  std::promise<void> open;
  const std::shared_future<void> gate = open.get_future().share();
  std::atomic<int> started{0};
  for (int i = 0; i <= pool.num_threads(); ++i) {
    pool.Submit([gate, &started] {
      started.fetch_add(1);
      (void)gate.wait_for(std::chrono::seconds(2));
    });
  }
  while (started.load() < pool.num_threads()) std::this_thread::yield();
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  for (const auto& [n, grain] : {std::pair<int64_t, int64_t>{512, 512},
                                 std::pair<int64_t, int64_t>{1, 0},
                                 std::pair<int64_t, int64_t>{3, 16}}) {
    pool.ParallelFor(n, grain, [&, n = n](int64_t begin, int64_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(started.load(), pool.num_threads());
      EXPECT_EQ(begin, 0);
      EXPECT_EQ(end, n);
      ++calls;
    });
  }
  EXPECT_EQ(calls, 3);
  EXPECT_THROW(pool.ParallelFor(8, 8,
                                [](int64_t, int64_t) {
                                  throw std::runtime_error("one chunk");
                                }),
               std::runtime_error);
  open.set_value();
  pool.Wait();
  EXPECT_EQ(started.load(), pool.num_threads() + 1);
}

TEST(ThreadPool, SubmitExceptionPropagatesAtWait) {
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    pool.Submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 10; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
    EXPECT_THROW(pool.Wait(), std::runtime_error) << threads << " threads";
    // One failure does not poison the pool: later rounds run and Wait
    // returns cleanly.
    EXPECT_EQ(ran.load(), 10);
    pool.Submit([&ran] { ran.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(ran.load(), 11);
  }
}

TEST(ThreadPool, ParallelForExceptionPropagatesToCaller) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    // Throw from whichever chunk covers index 50 — one chunk [0, 100)
    // on the inline pool, a middle chunk otherwise.
    EXPECT_THROW(pool.ParallelFor(100, 8,
                                  [](int64_t begin, int64_t end) {
                                    if (begin <= 50 && 50 < end) {
                                      throw std::runtime_error("chunk");
                                    }
                                  }),
                 std::runtime_error)
        << threads << " threads";
    // The pool survives: a following ParallelFor covers everything.
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, 8, [&sum](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
}

TEST(ThreadPool, NestedParallelFor) {
  // An outer ParallelFor whose chunks launch inner ParallelFors on the
  // SAME pool: waiting callers help drain the queue, so this must
  // complete (no deadlock) and cover every (i, j) cell exactly once.
  ThreadPool pool(4);
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 101;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, 1, [&](int64_t obegin, int64_t oend) {
    for (int64_t i = obegin; i < oend; ++i) {
      pool.ParallelFor(kInner, 10, [&, i](int64_t begin, int64_t end) {
        for (int64_t j = begin; j < end; ++j) {
          hits[i * kInner + j].fetch_add(1);
        }
      });
    }
  });
  for (size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "cell " << k;
  }
}

TEST(ThreadPool, NestedSubmitFromTask) {
  // Tasks may enqueue further tasks; Wait must not return before the
  // transitively submitted work finishes.
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &ran] {
      ran.fetch_add(1);
      pool.Submit([&ran] { ran.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, ConcurrentParallelForFromManyCallers) {
  // Independent user threads issuing ParallelFors against one pool:
  // each caller's group must complete with exactly its own coverage.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int64_t kN = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 3; ++round) {
        pool.ParallelFor(kN, 64, [&hits, c](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) hits[c][i].fetch_add(1);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), 3) << "caller " << c << " index " << i;
    }
  }
}

}  // namespace
}  // namespace cmp
