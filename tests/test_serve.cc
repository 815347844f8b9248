// In-process tests of the serving subsystem: the lock-free latency
// histogram, ModelRegistry's RCU swap semantics (hammered from many
// threads — this is a TSan target), MicroBatcher's inline scoring and
// batch accounting, and a real ServeDaemon on an ephemeral port driven
// through ServeClient, including a hot swap under concurrent traffic.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/format_number.h"
#include "common/net.h"
#include "common/schema.h"
#include "common/thread_pool.h"
#include "infer/model_io.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/latency.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tree/tree.h"

namespace cmp {
namespace {

Schema MakeSchema() {
  return Schema({{"x", AttrKind::kNumeric, 0}, {"y", AttrKind::kNumeric, 0}},
                {"neg", "pos"});
}

// x <= threshold -> left leaf, else right. `flip` swaps the two leaf
// classes, giving a "new model version" whose predictions visibly
// differ from the old one on every row.
DecisionTree MakeTree(double threshold, bool flip) {
  DecisionTree tree(MakeSchema());
  TreeNode root;
  root.is_leaf = false;
  root.split = Split::Numeric(0, threshold);
  tree.AddNode(root);
  TreeNode left;
  left.is_leaf = true;
  left.leaf_class = flip ? 1 : 0;
  left.class_counts = {flip ? int64_t{1} : int64_t{9},
                       flip ? int64_t{9} : int64_t{1}};
  left.depth = 1;
  TreeNode right = left;
  right.leaf_class = flip ? 0 : 1;
  right.class_counts = {left.class_counts[1], left.class_counts[0]};
  tree.AddNode(left);
  tree.AddNode(right);
  tree.mutable_node(0).left = 1;
  tree.mutable_node(0).right = 2;
  return tree;
}

CompiledModel MakeModel(double threshold, bool flip) {
  const DecisionTree tree = MakeTree(threshold, flip);
  std::string error;
  CompiledModel model = CompileModel({&tree}, &error);
  EXPECT_FALSE(model.empty()) << error;
  return model;
}

// Scores one all-numeric row through the batcher's column entry point:
// each column is a pointer to the row's value for that attribute.
BatchResult PredictRow(const ServedModel& model, const double* row) {
  std::vector<const double*> cols;
  for (int32_t a = 0; a < model.schema().num_attrs(); ++a) {
    cols.push_back(row + a);
  }
  return model.PredictColumns(cols.data(), nullptr, 1);
}

// Polls `done` every millisecond until it holds or `timeout` passes;
// returns whether it held. Concurrency tests pace themselves with this
// instead of fixed sleeps, so a loaded machine slows them down rather
// than failing them.
template <typename Pred>
bool WaitUntil(Pred done, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServeLatency, BucketMappingIsMonotone) {
  int prev = -1;
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull, 15ull,
                     16ull, 1000ull, 1000000ull, 1000000000ull,
                     ~0ull >> 1, ~0ull}) {
    const int b = LatencyHistogram::BucketOf(v);
    ASSERT_GE(b, prev) << "v=" << v;
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    prev = b;
  }
}

TEST(ServeLatency, QuantilesTrackRecordedValues) {
  LatencyHistogram hist;
  // 1000 values at ~100us, 10 at ~10ms: p50 near the low mode, p99
  // within a bucket's width of the high mode, max exact.
  for (int i = 0; i < 1000; ++i) hist.Record(100'000);
  for (int i = 0; i < 10; ++i) hist.Record(10'000'000);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 1010u);
  EXPECT_GT(snap.p50_us, 50.0);
  EXPECT_LT(snap.p50_us, 200.0);
  EXPECT_GT(snap.p99_us, 60.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 10'000.0);
  EXPECT_GT(snap.mean_us, 100.0);
}

TEST(ServeLatency, ConcurrentRecordersLoseNothing) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kEach = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kEach; ++i) {
        hist.Record(static_cast<uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.Snap().count, uint64_t{kThreads} * kEach);
}

TEST(ServeStats, JsonHasTheContractFields) {
  ServeStats stats;
  stats.AddRows(5);
  stats.AddRequests(2);
  stats.AddQueueDepth(3);
  stats.request_latency().Record(1000);
  stats.stages().parse.Record(2000);
  const std::string json = stats.ToJson();
  for (const char* key :
       {"\"rows\":5", "\"requests\":2", "\"rows_per_sec\"", "\"p50\"",
        "\"p99\"", "\"max\"", "\"swaps\"", "\"uptime_s\"", "\"stages_us\"",
        "\"parse\":{\"count\":1", "\"queue_wait\"", "\"score\"",
        "\"reply_write\"", "\"queue_depth\":3"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // Scrapers read the first "p50"/"p99" as the request latency, so the
  // stage histograms must come after latency_us.
  const size_t latency = json.find("\"latency_us\"");
  ASSERT_NE(latency, std::string::npos);
  EXPECT_LT(latency, json.find("\"stages_us\""));
  EXPECT_LT(latency, json.find("\"queue_depth\""));
  EXPECT_GT(json.find("\"p50\""), latency);
}

// `predictp` writes probabilities with AppendFloat, which must give the
// bytes `ostream << float` gives by default (and `cmptool predict --probs`
// writes).
TEST(ServeReply, ProbabilitiesFormatLikeOstream) {
  std::vector<float> values = {0.0f, 1.0f, 0.1f, 0.9f, 1.0f / 3.0f, 1e-7f};
  std::mt19937 rng(42);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  for (int i = 0; i < 10'000; ++i) values.push_back(unit(rng));
  for (const float v : values) {
    std::ostringstream want;
    want << v;
    std::string got;
    AppendFloat(v, &got);
    ASSERT_EQ(got, want.str()) << v;
  }
}

// Makes a blocked recv on `fd` give up after 10 s, so a reader that
// waits for bytes that never come fails its test instead of hanging it.
void BoundRecvWait(int fd) {
  timeval tv{};
  tv.tv_sec = 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
}

// LineReader over a socketpair: pipelined, split and CRLF lines come out
// one by one, a line of kMaxLineBytes is read whole, and a longer one —
// with or without its newline — ends the stream instead of growing the
// buffer.
TEST(LineReader, FramesLinesAndCapsTheirLength) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  BoundRecvWait(fds[0]);
  LineReader reader(fds[0]);
  std::string line;
  ASSERT_TRUE(SendAll(fds[1], std::string("a\r\nbb\nsp")));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "bb");
  ASSERT_TRUE(SendAll(fds[1], std::string("lit\n\n")));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "split");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "");

  // A line of exactly the cap, then one byte more with no newline: the
  // second is refused as soon as it passes the cap, without waiting for
  // the rest. Sent from a thread, since the socket buffer is far smaller.
  const std::string longest(kMaxLineBytes, '7');
  std::thread sender([&] {
    (void)SendAll(fds[1], longest + "\n" + longest + "8");
  });
  EXPECT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line.size(), kMaxLineBytes);
  EXPECT_FALSE(reader.too_long());
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_TRUE(reader.too_long());
  sender.join();
  ASSERT_TRUE(SendAll(fds[1], std::string("\nok\n")));
  EXPECT_FALSE(reader.ReadLine(&line));  // out of step for good
  ::close(fds[0]);
  ::close(fds[1]);

  // EOF after a partial line is not a long line.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineReader eof(fds[0]);
  ASSERT_TRUE(SendAll(fds[1], std::string("partial")));
  ::shutdown(fds[1], SHUT_WR);
  EXPECT_FALSE(eof.ReadLine(&line));
  EXPECT_FALSE(eof.too_long());
  ::close(fds[0]);
  ::close(fds[1]);
}

// The cap admits the longest valid `predict` line: kMaxSchemaAttrs
// fields of the longest number to_chars writes for a double, after a
// long model name.
TEST(LineReader, CapAdmitsTheLongestPredictLine) {
  char field[64];
  const size_t field_bytes = static_cast<size_t>(
      std::to_chars(field, field + sizeof(field),
                    -std::numeric_limits<double>::min())
          .ptr -
      field);
  EXPECT_EQ(std::string(field, field_bytes), "-2.2250738585072014e-308");
  EXPECT_EQ(field_bytes, kMaxFieldBytes);
  const size_t longest = std::string("predict ").size() + 255 + 1 +
                         static_cast<size_t>(kMaxSchemaAttrs) *
                             (field_bytes + 1) -
                         1;
  EXPECT_LE(longest, kMaxLineBytes);
}

TEST(ModelRegistry, PublishGetAndVersioning) {
  ThreadPool pool(1);
  ModelRegistry registry(&pool);
  EXPECT_EQ(registry.Get("m"), nullptr);

  std::string error;
  EXPECT_EQ(registry.Publish("m", MakeModel(0.0, false), "a.cmpb", &error),
            1u);
  std::shared_ptr<const ServedModel> v1 = registry.Get("m");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->source_path(), "a.cmpb");

  EXPECT_EQ(registry.Publish("m", MakeModel(0.0, true), "b.cmpb", &error),
            2u);
  std::shared_ptr<const ServedModel> v2 = registry.Get("m");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version(), 2u);

  // RCU: the old version is still fully usable through the retained
  // reference, and disagrees with the new one by construction.
  const double x_neg[] = {-5.0, 0.0};
  const BatchResult old_r = PredictRow(*v1, x_neg);
  const BatchResult new_r = PredictRow(*v2, x_neg);
  EXPECT_EQ(old_r.labels[0], 0);
  EXPECT_EQ(new_r.labels[0], 1);
  EXPECT_EQ(registry.size(), 1);

  EXPECT_EQ(registry.Publish("other", MakeModel(1.0, false), "", &error), 1u);
  EXPECT_EQ(registry.size(), 2);
  EXPECT_EQ(registry.List().size(), 2u);

  CompiledModel empty;
  EXPECT_EQ(registry.Publish("bad", std::move(empty), "", &error), 0u);
  EXPECT_FALSE(error.empty());
}

// The TSan-facing test: scorers resolve-and-predict in a tight loop
// while a swapper republishes the model. Any torn read of the model
// pointer, the node arrays, or the blob refcount is a data-race report;
// correctness-wise every reply must be self-consistent with the version
// that produced it.
TEST(ModelRegistry, SwapUnderConcurrentScoring) {
  ThreadPool pool(2);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_EQ(registry.Publish("hot", MakeModel(0.0, false), "", &error), 1u);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> scored{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 3; ++t) {
    scorers.emplace_back([&] {
      const double row_neg[] = {-1.0, 0.0};
      const double row_pos[] = {1.0, 0.0};
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const ServedModel> m = registry.Get("hot");
        ASSERT_NE(m, nullptr);
        const bool flipped = m->version() % 2 == 0;  // even versions flip
        const BatchResult neg = PredictRow(*m, row_neg);
        const BatchResult pos = PredictRow(*m, row_pos);
        ASSERT_EQ(neg.labels[0], flipped ? 1 : 0);
        ASSERT_EQ(pos.labels[0], flipped ? 0 : 1);
        scored.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  // The swaps only race the scorers if the scorers are already running.
  EXPECT_TRUE(WaitUntil([&] { return scored.load() > 0; },
                        std::chrono::milliseconds(5000)));
  for (int swap = 0; swap < 50; ++swap) {
    // Versions start at 2 here; flip on even versions keeps the
    // scorers' invariant in lockstep with the publish counter.
    const uint64_t v = registry.Publish(
        "hot", MakeModel(0.0, (swap % 2) == 0), "", &error);
    EXPECT_EQ(v, static_cast<uint64_t>(swap) + 2);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : scorers) t.join();
}

// Occupies every worker of `pool` with a task that blocks until
// Release() (or destruction), to show that serving never waits for a
// worker. Returns once every worker is held, so no held task is left in
// the queue for a waiting caller to pick up. Declare it after the pool,
// whose destructor joins the held workers.
class WorkerHold {
 public:
  explicit WorkerHold(ThreadPool* pool) : gate_(open_.get_future().share()) {
    for (int w = 0; w < pool->num_threads(); ++w) {
      pool->Submit([this, gate = gate_] {
        held_.fetch_add(1);
        gate.wait();
      });
    }
    while (held_.load() < pool->num_threads()) std::this_thread::yield();
  }
  ~WorkerHold() { Release(); }
  void Release() {
    if (!released_) open_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_;
  std::atomic<int> held_{0};
  bool released_ = false;
};

// Waits a bounded time for a batcher reply, so a stranded row fails the
// test instead of hanging it.
RowReply GetReply(std::future<RowReply>* fut) {
  if (fut->wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "row was never scored";
    return RowReply{};
  }
  return fut->get();
}

std::vector<RowValues> Rows(const std::vector<double>& xs) {
  std::vector<RowValues> rows;
  for (const double x : xs) rows.push_back({{x, 0.0}, {}});
  return rows;
}

class MicroBatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_NE(registry_.Publish("m", MakeModel(0.0, false), "", &error), 0u);
    v1_ = registry_.Get("m");
    ASSERT_NE(registry_.Publish("m", MakeModel(0.0, true), "", &error), 0u);
    v2_ = registry_.Get("m");
  }
  // Scoring pool for the registry's models; the batchers under test
  // dispatch onto pools of their own.
  ThreadPool model_pool_{1};
  ModelRegistry registry_{&model_pool_};
  std::shared_ptr<const ServedModel> v1_;  // x <= 0 -> neg (0)
  std::shared_ptr<const ServedModel> v2_;  // flipped: x <= 0 -> pos (1)
  ServeStats stats_;
};

// A lone row on an idle batcher is scored at once; its reply carries the
// label, the probabilities and the version that scored it.
TEST_F(MicroBatcherTest, ALoneRowIsScoredAtOnce) {
  ThreadPool pool(2);
  MicroBatcher batcher(&pool, BatchPolicy{}, &stats_);
  std::future<RowReply> fut =
      batcher.Submit(v1_, {3.0, 0.0}, {}, /*want_probs=*/true);
  const RowReply reply = GetReply(&fut);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.label, 1);
  EXPECT_EQ(reply.model_version, 1u);
  ASSERT_EQ(reply.probs.size(), 2u);
  EXPECT_FLOAT_EQ(reply.probs[1], 0.9f);
  EXPECT_EQ(stats_.batches(), 1u);
}

// A submission is scored on the submitting thread: with every worker of
// the model's pool held, a row and a one-block request still come back
// ready, each as its own batch.
TEST_F(MicroBatcherTest, SubmitCompletesWhileEveryWorkerIsHeld) {
  ThreadPool pool(2);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, false), "", &error), 0u);
  BatchPolicy policy;
  policy.max_rows = 512;
  MicroBatcher batcher(&pool, policy, &stats_);
  WorkerHold hold(&pool);
  std::future<RowReply> one =
      batcher.Submit(registry.Get("m"), {-1.0, 0.0}, {}, false);
  ASSERT_EQ(one.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(one.get().label, 0);
  std::vector<std::future<RowReply>> many = batcher.SubmitMany(
      registry.Get("m"), Rows(std::vector<double>(512, 1.0)), false);
  for (std::future<RowReply>& f : many) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().label, 1);
  }
  EXPECT_EQ(stats_.batches(), 2u);
  EXPECT_EQ(stats_.rows(), 513u);
  EXPECT_EQ(stats_.queue_depth(), 0);
}

// One SubmitMany of n <= max_rows rows is exactly one batch, whether the
// pool's workers are free or all held.
TEST_F(MicroBatcherTest, SubmitManyIsOneBatch) {
  ThreadPool pool(2);
  BatchPolicy policy;
  policy.max_rows = 8;
  MicroBatcher batcher(&pool, policy, &stats_);
  std::vector<std::future<RowReply>> futures = batcher.SubmitMany(
      v1_, Rows({-1, 1, -2, 2, -3, 3, -4, 4}), /*want_probs=*/false);
  ASSERT_EQ(futures.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const RowReply reply = GetReply(&futures[i]);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.label, i % 2) << i;
  }
  EXPECT_EQ(stats_.batches(), 1u);
  EXPECT_EQ(stats_.rows(), 8u);

  {
    WorkerHold hold(&pool);
    futures = batcher.SubmitMany(v1_, Rows({-1, 1}), false);
    std::vector<std::future<RowReply>> more =
        batcher.SubmitMany(v1_, Rows({-1, 1, -2}), false);
    std::vector<std::future<RowReply>> third =
        batcher.SubmitMany(v1_, Rows({-1, 1, -2, 2}), false);
    hold.Release();
    for (auto* group : {&futures, &more, &third}) {
      for (std::future<RowReply>& f : *group) EXPECT_TRUE(GetReply(&f).ok);
    }
  }
  batcher.Stop();
  EXPECT_EQ(stats_.batches(), 4u);
  EXPECT_EQ(stats_.rows(), 17u);
}

// max_rows caps a batch with or without workers: a request of 10 rows
// at max_rows 4 is 4 + 4 + 2.
TEST_F(MicroBatcherTest, MaxRowsCapsABatch) {
  BatchPolicy policy;
  policy.max_rows = 4;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    ServeStats stats;
    ThreadPool pool(threads);
    MicroBatcher batcher(&pool, policy, &stats);
    std::vector<std::future<RowReply>> futures =
        batcher.SubmitMany(v1_, Rows({1, 1, 1, 1, 1, 1, 1, 1, 1, 1}), false);
    for (std::future<RowReply>& f : futures) {
      const RowReply reply = GetReply(&f);
      ASSERT_TRUE(reply.ok) << reply.error;
      EXPECT_EQ(reply.label, 1);
    }
    batcher.Stop();
    EXPECT_EQ(stats.batches(), 3u);
    EXPECT_EQ(stats.rows(), 10u);
  }
}

// Interleaved submissions against two versions of one model each score
// on their own version, one batch per submission: the swap scenario in
// miniature.
TEST_F(MicroBatcherTest, InterleavedVersionsEachScoreOnTheirOwnVersion) {
  ThreadPool pool(2);
  MicroBatcher batcher(&pool, BatchPolicy{}, &stats_);
  std::vector<std::future<RowReply>> futures;
  std::vector<uint64_t> versions;
  std::vector<ClassId> want;
  for (int i = 0; i < 6; ++i) {
    const bool use_v2 = i % 2 == 1;
    const double x = i % 3 == 0 ? -1.0 : 1.0;
    const ClassId label = (x < 0) != use_v2 ? 0 : 1;
    if (i < 3) {
      futures.push_back(
          batcher.Submit(use_v2 ? v2_ : v1_, {x, 0.0}, {}, false));
      versions.push_back(use_v2 ? 2u : 1u);
      want.push_back(label);
    } else {
      for (std::future<RowReply>& f :
           batcher.SubmitMany(use_v2 ? v2_ : v1_, Rows({x, x}), false)) {
        futures.push_back(std::move(f));
        versions.push_back(use_v2 ? 2u : 1u);
        want.push_back(label);
      }
    }
  }
  ASSERT_EQ(futures.size(), 9u);
  for (size_t i = 0; i < futures.size(); ++i) {
    const RowReply reply = GetReply(&futures[i]);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.label, want[i]) << i;
    EXPECT_EQ(reply.model_version, versions[i]) << i;
  }
  batcher.Stop();
  EXPECT_EQ(stats_.batches(), 6u);
  EXPECT_EQ(stats_.rows(), 9u);
}

// With an inline pool every submitter scores its own rows; concurrent
// submitters never wait on one another's rows, so nothing hangs.
TEST_F(MicroBatcherTest, InlinePoolWithConcurrentSubmittersNeverHangs) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.num_threads(), 0);
  BatchPolicy policy;
  policy.max_rows = 3;
  MicroBatcher batcher(&pool, policy, &stats_);
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const double x = (i + t) % 2 == 0 ? -1.0 : 1.0;
        std::future<RowReply> one = batcher.Submit(v1_, {x, 0.0}, {}, false);
        EXPECT_EQ(GetReply(&one).label, x < 0 ? 0 : 1);
        std::vector<std::future<RowReply>> many =
            batcher.SubmitMany(v2_, Rows({x, x, x, x}), false);
        for (std::future<RowReply>& f : many) {
          EXPECT_EQ(GetReply(&f).label, x < 0 ? 1 : 0);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  batcher.Stop();
  EXPECT_EQ(stats_.rows(), uint64_t{kThreads} * kRounds * 5);
  // Each round: the lone row, then 4 rows capped at 3 -> 3 batches.
  EXPECT_EQ(stats_.batches(), uint64_t{kThreads} * kRounds * 3);
  EXPECT_EQ(stats_.queue_depth(), 0);
}

// Stop waits for a submission that is being scored, then rejects new
// work at once. A 100k-row request is 391 batches of at most 256 rows;
// Stop is called as soon as its rows are counted in the queue depth.
TEST_F(MicroBatcherTest, StopWaitsForAnInFlightSubmitManyAndRejectsLaterWork) {
  ThreadPool pool(2);
  MicroBatcher batcher(&pool, BatchPolicy{}, &stats_);
  constexpr size_t kRows = 100'000;
  std::vector<std::future<RowReply>> futures;
  std::thread submitter([&] {
    futures = batcher.SubmitMany(
        v1_, Rows(std::vector<double>(kRows, -2.0)), false);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stats_.rows() < kRows && stats_.queue_depth() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  batcher.Stop();
  // Every accepted row was scored before Stop returned.
  EXPECT_EQ(stats_.rows(), kRows);
  EXPECT_EQ(stats_.queue_depth(), 0);
  std::future<RowReply> late = batcher.Submit(v1_, {-2.0, 0.0}, {}, false);
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const RowReply rejected = late.get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "server shutting down");
  EXPECT_FALSE(batcher.SubmitMany(v1_, Rows({1}), false)[0].get().ok);
  submitter.join();
  ASSERT_EQ(futures.size(), kRows);
  for (std::future<RowReply>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const RowReply reply = f.get();
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.label, 0);
  }
  EXPECT_EQ(stats_.rows(), kRows);
}

// Many threads mixing Submit and SubmitMany across two versions on a
// small pool: every future resolves with its own version's label.
TEST_F(MicroBatcherTest, StressMixedSubmitAndSubmitManyResolveEveryRow) {
  ThreadPool pool(3);
  BatchPolicy policy;
  policy.max_rows = 16;
  MicroBatcher batcher(&pool, policy, &stats_);
  constexpr int kThreads = 8;
  constexpr int kRounds = 150;
  std::atomic<uint64_t> submitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kRounds && !::testing::Test::HasFailure(); ++i) {
        const bool use_v2 = (i + t) % 3 == 0;
        const auto& model = use_v2 ? v2_ : v1_;
        const double x = (i * 7 + t) % 2 == 0 ? -1.0 : 1.0;
        const ClassId want = (x < 0) != use_v2 ? 0 : 1;
        std::vector<std::future<RowReply>> futures;
        if (i % 2 == 0) {
          futures.push_back(batcher.Submit(model, {x, 0.0}, {}, false));
        } else {
          const int n = 1 + (i * 5 + t) % 24;  // sometimes > max_rows
          futures = batcher.SubmitMany(
              model, Rows(std::vector<double>(static_cast<size_t>(n), x)),
              false);
        }
        submitted.fetch_add(futures.size(), std::memory_order_relaxed);
        for (std::future<RowReply>& f : futures) {
          const RowReply reply = GetReply(&f);
          ASSERT_TRUE(reply.ok) << reply.error;
          EXPECT_EQ(reply.label, want);
          EXPECT_EQ(reply.model_version, use_v2 ? 2u : 1u);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  batcher.Stop();
  EXPECT_EQ(stats_.rows(), submitted.load());
  EXPECT_EQ(stats_.queue_depth(), 0);
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    blob_a_ = std::string(::testing::TempDir()) + "/serve_a.cmpb";
    blob_b_ = std::string(::testing::TempDir()) + "/serve_b.cmpb";
    const DecisionTree a = MakeTree(0.0, false);
    const DecisionTree b = MakeTree(0.0, true);
    std::string error;
    ASSERT_TRUE(SaveModelBlob({&a}, blob_a_, &error)) << error;
    ASSERT_TRUE(SaveModelBlob({&b}, blob_b_, &error)) << error;
  }
  void TearDown() override {
    std::remove(blob_a_.c_str());
    std::remove(blob_b_.c_str());
  }
  std::string blob_a_;
  std::string blob_b_;
};

TEST_F(ServeDaemonTest, ServesPredictionsOverTcp) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u)
      << error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  ASSERT_GT(daemon.port(), 0);

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.Rpc("predict m -3.5,0", &reply));
  EXPECT_EQ(reply, "ok neg");
  ASSERT_TRUE(client.Rpc("predict m 3.5,0", &reply));
  EXPECT_EQ(reply, "ok pos");
  ASSERT_TRUE(client.Rpc("predictp m 3.5,0", &reply));
  EXPECT_EQ(reply, "ok pos 0.1 0.9");
  ASSERT_TRUE(client.Rpc("predict m 1,2,3", &reply));
  EXPECT_EQ(reply.rfind("err ", 0), 0u);
  ASSERT_TRUE(client.Rpc("predict ghost 1,2", &reply));
  EXPECT_EQ(reply, "err unknown model 'ghost'");
  ASSERT_TRUE(client.Rpc("bogus", &reply));
  EXPECT_EQ(reply.rfind("err unknown verb", 0), 0u);

  std::vector<std::string> replies;
  ASSERT_TRUE(client.Batch("m", {"-1,0", "1,0", "oops"}, &replies));
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0], "ok neg");
  EXPECT_EQ(replies[1], "ok pos");
  EXPECT_EQ(replies[2].rfind("err ", 0), 0u);

  ASSERT_TRUE(client.Rpc("stats", &reply));
  EXPECT_EQ(reply.rfind("ok {", 0), 0u);
  EXPECT_NE(reply.find("\"p99\""), std::string::npos);

  daemon.Shutdown();
}

// An unknown model in `batch` still consumes the pipelined rows and
// answers one err line per row plus "done 0", leaving the connection in
// step for the next request.
TEST_F(ServeDaemonTest, BatchForAnUnknownModelKeepsTheConnectionInStep) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  ASSERT_TRUE(client.Send("batch ghost 3\n-1,0\n1,0\n2,0"));
  std::string reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Recv(&reply));
    EXPECT_EQ(reply.rfind("err unknown model", 0), 0u) << reply;
  }
  ASSERT_TRUE(client.Recv(&reply));
  EXPECT_EQ(reply, "done 0");
  ASSERT_TRUE(client.Rpc("predict m 3,0", &reply));
  EXPECT_EQ(reply, "ok pos");
  daemon.Shutdown();
}

// A `batch` on an idle daemon is one enqueue and one scoring batch,
// back at once even with a batch cap far above its size; the stage
// histograms account for it.
TEST_F(ServeDaemonTest, BatchIsScoredAsOneBatchWithoutWaiting) {
  ServeOptions opts;
  opts.batch.max_rows = 1'000'000;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::vector<std::string> replies;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.Batch("m", {"-1,0", "1,0", "2,0"}, &replies));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(replies, (std::vector<std::string>{"ok neg", "ok pos", "ok pos"}));

  // The connection thread records the reply write after sending it; a
  // second request on the same connection orders us after that.
  std::string reply;
  ASSERT_TRUE(client.Rpc("stats", &reply));
  const StageLatencies& stages = daemon.stats().stages();
  EXPECT_EQ(stages.parse.Snap().count, 3u);
  EXPECT_EQ(stages.queue_wait.Snap().count, 3u);
  EXPECT_LT(stages.queue_wait.Snap().max_us, 1e6);
  EXPECT_EQ(stages.score.Snap().count, 1u);
  EXPECT_EQ(daemon.stats().batches(), 1u);
  EXPECT_EQ(stages.reply_write.Snap().count, 1u);
  EXPECT_EQ(daemon.stats().queue_depth(), 0);
  daemon.Shutdown();
}

// `batch <model> <n>` takes only a whole decimal count in [0, 1<<20]:
// anything else is a usage error that counts as a protocol error and
// reads no rows, leaving the connection in step.
TEST_F(ServeDaemonTest, BatchRejectsCountsThatAreNotWholeNumbers) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  const std::vector<std::string> bad = {
      "batch m abc", "batch m -0",      "batch m 1x",  "batch m +1",
      "batch m -3",  "batch m 1.5",     "batch m 1 ",  "batch m  1",
      "batch m",     "batch m 1048577", "batch m 99999999999999999999"};
  std::string reply;
  for (const std::string& line : bad) {
    ASSERT_TRUE(client.Rpc(line, &reply)) << line;
    EXPECT_EQ(reply, "err usage: batch <model> <num-rows>") << line;
    ASSERT_TRUE(client.Rpc("predict m 3,0", &reply)) << line;
    EXPECT_EQ(reply, "ok pos") << line;
  }
  ASSERT_TRUE(client.Rpc("stats", &reply));
  EXPECT_NE(reply.find("\"protocol_errors\":" + std::to_string(bad.size())),
            std::string::npos)
      << reply;

  // The edges of the range are still served.
  ASSERT_TRUE(client.Rpc("batch m 0", &reply));
  EXPECT_EQ(reply, "done 0");
  std::vector<std::string> replies;
  ASSERT_TRUE(client.Batch("m", {"-1,0"}, &replies));
  EXPECT_EQ(replies, std::vector<std::string>{"ok neg"});
  daemon.Shutdown();
}

// A served row field is exactly one number: NaN in a numeric field, a
// categorical code outside [0, cardinality), and a field with spaces, a
// '+', a hex prefix or a value beyond a double are bad values, answered
// `err bad value …` and counted as protocol errors, with the connection
// left in step.
TEST_F(ServeDaemonTest, RejectsNaNAndCategoricalCodesOutOfRange) {
  DecisionTree cat_tree(Schema(
      {{"x", AttrKind::kNumeric, 0}, {"c", AttrKind::kCategorical, 3}},
      {"neg", "pos"}));
  TreeNode root;
  root.is_leaf = false;
  root.split = Split::Categorical(1, {1, 0, 0});
  cat_tree.AddNode(root);
  TreeNode leaf;
  leaf.leaf_class = 0;
  leaf.class_counts = {1, 0};
  leaf.depth = 1;
  cat_tree.AddNode(leaf);
  leaf.leaf_class = 1;
  leaf.class_counts = {0, 1};
  cat_tree.AddNode(leaf);
  cat_tree.mutable_node(0).left = 1;
  cat_tree.mutable_node(0).right = 2;
  const std::string cat_blob =
      std::string(::testing::TempDir()) + "/serve_cat.cmpb";
  std::string error;
  ASSERT_TRUE(SaveModelBlob({&cat_tree}, cat_blob, &error)) << error;

  ServeOptions opts;
  ServeDaemon daemon(opts);
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_NE(daemon.registry().PublishFromFile("c", cat_blob, &error), 0u);
  std::remove(cat_blob.c_str());
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"predict m nan,0", "err bad value 'nan' for attribute x"},
      {"predict m 0,NAN", "err bad value 'NAN' for attribute y"},
      {"predict m -nan,0", "err bad value '-nan' for attribute x"},
      {"predict m nan(1),0", "err bad value 'nan(1)' for attribute x"},
      {"predict c 0,3", "err bad value '3' for attribute c"},
      {"predict c 0,-1", "err bad value '-1' for attribute c"},
      {"predict c 0,4294967296", "err bad value '4294967296' for attribute c"},
      {"predictp c nan,0", "err bad value 'nan' for attribute x"},
      // Forms strtod/strtol accepted: a hex prefix, leading spaces, a
      // leading '+', and values that overflow or underflow a double.
      {"predict m 0x10,0", "err bad value '0x10' for attribute x"},
      {"predict m  1,0", "err bad value ' 1' for attribute x"},
      {"predict m +1,0", "err bad value '+1' for attribute x"},
      {"predict m 1e999,0", "err bad value '1e999' for attribute x"},
      {"predict m 1e-400,0", "err bad value '1e-400' for attribute x"},
      {"predict c 0, 1", "err bad value ' 1' for attribute c"},
      {"predict c 0,+1", "err bad value '+1' for attribute c"},
      // Trailing spaces and a hex code stay rejected.
      {"predict m 1 ,0", "err bad value '1 ' for attribute x"},
      {"predict m 0,1 ", "err bad value '1 ' for attribute y"},
      {"predict c 0,0x1", "err bad value '0x1' for attribute c"}};
  std::string reply;
  for (const auto& [line, want] : bad) {
    ASSERT_TRUE(client.Rpc(line, &reply)) << line;
    EXPECT_EQ(reply, want) << line;
  }
  ASSERT_TRUE(client.Rpc("stats", &reply));
  EXPECT_NE(reply.find("\"protocol_errors\":" + std::to_string(bad.size())),
            std::string::npos)
      << reply;

  // Infinities and every code in range are still served, and a bad row
  // of a batch answers in its place.
  ASSERT_TRUE(client.Rpc("predict m -inf,0", &reply));
  EXPECT_EQ(reply, "ok neg");
  ASSERT_TRUE(client.Rpc("predict m inf,0", &reply));
  EXPECT_EQ(reply, "ok pos");
  ASSERT_TRUE(client.Rpc("predict c 0,0", &reply));
  EXPECT_EQ(reply, "ok neg");
  ASSERT_TRUE(client.Rpc("predict c 0,2", &reply));
  EXPECT_EQ(reply, "ok pos");
  std::vector<std::string> replies;
  ASSERT_TRUE(client.Batch("c", {"0,1", "0,3", "nan,0", "1,0"}, &replies));
  EXPECT_EQ(replies, (std::vector<std::string>{
                         "ok pos", "err bad value '3' for attribute c",
                         "err bad value 'nan' for attribute x", "ok neg"}));
  daemon.Shutdown();
}

// Closed-loop 64-row batches over TCP must not hit the ~40 ms
// Nagle/delayed-ACK stall that line-by-line replies used to cause.
TEST_F(ServeDaemonTest, BatchRoundTripAvoidsTheDelayedAckStall) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  const std::vector<std::string> rows(64, "-1,0");
  std::vector<std::string> replies;
  std::vector<double> rtt_ms;
  for (int i = 0; i < 21; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Batch("m", rows, &replies));
    rtt_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    ASSERT_EQ(replies, std::vector<std::string>(64, "ok neg"));
  }
  std::nth_element(rtt_ms.begin(), rtt_ms.begin() + 10, rtt_ms.end());
  EXPECT_LT(rtt_ms[10], 20.0);
  daemon.Shutdown();
}

TEST_F(ServeDaemonTest, ServesOverUnixSocket) {
  ServeOptions opts;
  opts.unix_path = std::string(::testing::TempDir()) + "/cmpserve_test.sock";
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.Rpc("predict m -1,0", &reply));
  EXPECT_EQ(reply, "ok neg");
  daemon.Shutdown();
}

TEST_F(ServeDaemonTest, QuitShutsTheDaemonDown) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.Rpc("quit", &reply));
  EXPECT_EQ(reply, "ok bye");
  EXPECT_TRUE(daemon.WaitFor(5000));
  daemon.Shutdown();
}

// Hot swap under concurrent traffic, in-process: several client threads
// hammer predict while the main thread swaps between two models whose
// answers differ on every row. Every reply must be exactly one model's
// answer — "neg" or "pos", never garbage, never a hang — and each swap
// to model B must become visible.
TEST_F(ServeDaemonTest, HotSwapUnderConcurrentTraffic) {
  ServeOptions opts;
  opts.batch.max_rows = 8;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr auto kWait = std::chrono::milliseconds(5000);
  std::atomic<bool> stop{false};
  std::array<std::atomic<int64_t>, kClients> replies{};
  std::atomic<int64_t> flipped_seen{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      ServeClient client;
      std::string cerr_msg;
      ASSERT_TRUE(
          client.ConnectTcp("127.0.0.1", daemon.port(), &cerr_msg))
          << cerr_msg;
      std::string reply;
      while (!stop.load(std::memory_order_relaxed)) {
        // Row is on the neg side of model A, pos side answer under
        // model B (flipped leaves).
        if (!client.Rpc("predict m -2,0", &reply)) break;
        ASSERT_TRUE(reply == "ok neg" || reply == "ok pos") << reply;
        if (reply == "ok pos") {
          flipped_seen.fetch_add(1, std::memory_order_relaxed);
        }
        replies[t].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Every client is in the loop before the first swap.
  EXPECT_TRUE(WaitUntil(
      [&] {
        return std::all_of(replies.begin(), replies.end(),
                           [](const auto& r) { return r.load() > 0; });
      },
      kWait));
  ServeClient admin;
  EXPECT_TRUE(admin.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  for (int swap = 0; swap < 10 && !HasFailure(); ++swap) {
    const bool to_b = swap % 2 == 0;
    const int64_t flipped_before = flipped_seen.load();
    if (!admin.Rpc("swap m " + (to_b ? blob_b_ : blob_a_), &reply)) {
      ADD_FAILURE() << "swap " << swap << " got no reply";
      break;
    }
    EXPECT_EQ(reply.rfind("ok m v", 0), 0u) << reply;
    if (to_b) {
      EXPECT_TRUE(WaitUntil(
          [&] { return flipped_seen.load() > flipped_before; }, kWait))
          << "no reply from model B after swap " << swap;
    }
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(admin.Rpc("stats", &reply));
  EXPECT_NE(reply.find("\"swaps\":10"), std::string::npos) << reply;
  daemon.Shutdown();
}

// A plain TCP connection to the daemon, for clients that misbehave in
// ways ServeClient cannot: half-closing, or never reading.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  if (fd >= 0) BoundRecvWait(fd);
  return fd;
}

// A client that pipelines requests and never reads its replies blocks
// only its own connection thread: another client is still answered at
// once, and Shutdown still unblocks and joins the stuck thread.
TEST_F(ServeDaemonTest, AClientThatNeverReadsDoesNotStallOthers) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const int hog = ConnectRaw(daemon.port());
  ASSERT_GE(hog, 0);
  std::string requests;
  for (int i = 0; i < 20'000; ++i) requests += "predict m -1,0\n";
  // Sent from its own thread: once the daemon stops reading, this send
  // blocks until Shutdown resets the connection.
  std::thread sender([&] { (void)SendAll(hog, requests); });
  // The hog is being served before the other client starts.
  EXPECT_TRUE(WaitUntil([&] { return daemon.stats().rows() > 0; },
                        std::chrono::seconds(5)));

  ServeClient other;
  EXPECT_TRUE(other.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  for (int i = 0; i < 10; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (!other.Rpc("predict m 1,0", &reply)) {
      ADD_FAILURE() << "no reply to request " << i;
      break;
    }
    EXPECT_EQ(reply, "ok pos");
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  daemon.Shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  sender.join();
  ::close(hog);
}

// A client that sends its requests and then half-closes gets every
// reply, then EOF.
TEST_F(ServeDaemonTest, HalfClosedClientGetsItsRepliesThenEof) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const int fd = ConnectRaw(daemon.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, std::string("predict m -1,0\npredict m 1,0\n"
                                      "predict m -2,0\n")));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  LineReader reader(fd);
  std::vector<std::string> replies;
  std::string line;
  while (reader.ReadLine(&line)) replies.push_back(line);
  EXPECT_EQ(replies, (std::vector<std::string>{"ok neg", "ok pos", "ok neg"}));
  EXPECT_FALSE(reader.too_long());
  ::close(fd);
  daemon.Shutdown();
}

// A line longer than kMaxLineBytes, with no newline in sight, is
// answered `err line too long` and its connection closed, instead of
// being buffered without bound; the daemon keeps serving others.
TEST_F(ServeDaemonTest, OverlongLineIsRefusedAndItsConnectionClosed) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const int fd = ConnectRaw(daemon.port());
  ASSERT_GE(fd, 0);
  const std::string huge = "predict m " + std::string(kMaxLineBytes, '1');
  // The daemon stops reading partway, so the send may fail once it has
  // closed the connection.
  std::thread sender([&] { (void)SendAll(fd, huge); });
  LineReader reader(fd);
  std::string line;
  EXPECT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "err line too long");
  EXPECT_FALSE(reader.ReadLine(&line));
  ::shutdown(fd, SHUT_RDWR);  // unblocks the sender if the daemon did not
  sender.join();
  ::close(fd);

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.Rpc("predict m 1,0", &reply));
  EXPECT_EQ(reply, "ok pos");
  ASSERT_TRUE(client.Rpc("stats", &reply));
  EXPECT_NE(reply.find("\"protocol_errors\":1"), std::string::npos) << reply;
  daemon.Shutdown();
}

}  // namespace
}  // namespace cmp
