// In-process tests of the serving subsystem: the lock-free latency
// histogram, ModelRegistry's RCU swap semantics (hammered from many
// threads — this is a TSan target), MicroBatcher flush triggers and
// correctness, and a real ServeDaemon on an ephemeral port driven
// through ServeClient, including a hot swap under concurrent traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
  const BatchResult old_r = v1->PredictRows(x_neg, nullptr, 1);
  const BatchResult new_r = v2->PredictRows(x_neg, nullptr, 1);
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
        const BatchResult neg = m->PredictRows(row_neg, nullptr, 1);
        const BatchResult pos = m->PredictRows(row_pos, nullptr, 1);
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

TEST(MicroBatcher, SizeTriggerFlushesImmediately) {
  ThreadPool pool(1);
  ServeStats stats;
  BatchPolicy policy;
  policy.max_rows = 4;
  policy.max_delay_us = 10'000'000;  // deadline effectively off
  MicroBatcher batcher(&pool, policy, &stats);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, false), "", &error), 0u);
  std::shared_ptr<const ServedModel> model = registry.Get("m");

  std::vector<std::future<RowReply>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(batcher.Submit(
        model, {i < 2 ? -1.0 : 1.0, 0.0}, {}, /*want_probs=*/true));
  }
  for (int i = 0; i < 4; ++i) {
    RowReply reply = futures[i].get();
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.label, i < 2 ? 0 : 1);
    EXPECT_EQ(reply.model_version, 1u);
    ASSERT_EQ(reply.probs.size(), 2u);
    EXPECT_FLOAT_EQ(reply.probs[i < 2 ? 0 : 1], 0.9f);
  }
  EXPECT_EQ(stats.rows(), 4u);
  EXPECT_EQ(stats.batches(), 1u);
}

TEST(MicroBatcher, DeadlineTriggerReleasesALoneRow) {
  ThreadPool pool(1);
  ServeStats stats;
  BatchPolicy policy;
  policy.max_rows = 1'000'000;  // size trigger effectively off
  policy.max_delay_us = 500;
  MicroBatcher batcher(&pool, policy, &stats);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, false), "", &error), 0u);

  std::future<RowReply> fut = batcher.Submit(registry.Get("m"), {3.0, 0.0},
                                             {}, /*want_probs=*/false);
  const RowReply reply = fut.get();  // must not hang
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.label, 1);
  EXPECT_TRUE(reply.probs.empty());
}

TEST(MicroBatcher, MixedModelsInOneFlushScoreOnTheirOwnVersion) {
  ThreadPool pool(1);
  ServeStats stats;
  BatchPolicy policy;
  policy.max_rows = 4;
  policy.max_delay_us = 10'000'000;
  MicroBatcher batcher(&pool, policy, &stats);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, false), "", &error), 0u);
  std::shared_ptr<const ServedModel> v1 = registry.Get("m");
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, true), "", &error), 0u);
  std::shared_ptr<const ServedModel> v2 = registry.Get("m");

  // Two rows against each version, interleaved, in one flush: the
  // mid-queue swap scenario in miniature.
  std::vector<std::future<RowReply>> futures;
  futures.push_back(batcher.Submit(v1, {-1.0, 0.0}, {}, false));
  futures.push_back(batcher.Submit(v2, {-1.0, 0.0}, {}, false));
  futures.push_back(batcher.Submit(v1, {1.0, 0.0}, {}, false));
  futures.push_back(batcher.Submit(v2, {1.0, 0.0}, {}, false));
  const ClassId expect[] = {0, 1, 1, 0};
  for (int i = 0; i < 4; ++i) {
    RowReply reply = futures[i].get();
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.label, expect[i]) << i;
    EXPECT_EQ(reply.model_version, i % 2 == 0 ? 1u : 2u);
  }
}

TEST(MicroBatcher, StopFlushesPendingAndRejectsNewWork) {
  ThreadPool pool(1);
  ServeStats stats;
  BatchPolicy policy;
  policy.max_rows = 1'000'000;
  policy.max_delay_us = 60'000'000;  // neither trigger can fire
  MicroBatcher batcher(&pool, policy, &stats);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, false), "", &error), 0u);
  std::shared_ptr<const ServedModel> model = registry.Get("m");

  std::future<RowReply> pending =
      batcher.Submit(model, {-2.0, 0.0}, {}, false);
  batcher.Stop();
  const RowReply flushed = pending.get();
  ASSERT_TRUE(flushed.ok) << flushed.error;
  EXPECT_EQ(flushed.label, 0);

  const RowReply rejected =
      batcher.Submit(model, {0.0, 0.0}, {}, false).get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_FALSE(rejected.error.empty());
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
  opts.batch.max_delay_us = 300;
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
  EXPECT_EQ(reply.rfind("ok pos ", 0), 0u) << reply;
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
  opts.batch.max_delay_us = 300;
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

// A `batch` flushes its own rows: with both batcher triggers out of
// reach, a 3-row batch must still come back at once rather than after
// the 10 s deadline. The stage histograms account for it.
TEST_F(ServeDaemonTest, BatchDoesNotWaitForTheBatcherDeadline) {
  ServeOptions opts;
  opts.batch.max_delay_us = 10'000'000;
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
  EXPECT_GE(stages.score.Snap().count, 1u);
  EXPECT_EQ(stages.reply_write.Snap().count, 1u);
  EXPECT_EQ(daemon.stats().queue_depth(), 0);
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
  opts.batch.max_delay_us = 300;
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
  opts.batch.max_delay_us = 200;
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

}  // namespace
}  // namespace cmp
