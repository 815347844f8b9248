// End-to-end serving test against the real binaries: cmptool compiles
// .cmpb blobs, cmpserve serves them over TCP, concurrent clients hammer
// predictions while an admin connection hot-swaps the model, and every
// served label is compared byte-for-byte with `cmptool predict` on the
// same rows — before and after the swap. Paths to both binaries are
// injected by CMake.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/schema.h"
#include "serve/client.h"
#include "tree/serialize.h"
#include "tree/tree.h"

namespace cmp {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Schema MakeSchema() {
  return Schema({{"x", AttrKind::kNumeric, 0}, {"y", AttrKind::kNumeric, 0}},
                {"neg", "pos"});
}

// Two-level tree: x <= x_thr then y <= y_thr pick among 4 leaves, so
// the two models (different thresholds, different leaf layout) disagree
// on many rows.
DecisionTree MakeTree(double x_thr, double y_thr, bool flip) {
  DecisionTree tree(MakeSchema());
  TreeNode root;
  root.is_leaf = false;
  root.split = Split::Numeric(0, x_thr);
  tree.AddNode(root);
  TreeNode inner;
  inner.is_leaf = false;
  inner.split = Split::Numeric(1, y_thr);
  inner.depth = 1;
  tree.AddNode(inner);
  for (int i = 0; i < 3; ++i) {
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.leaf_class = flip ? (i + 1) % 2 : i % 2;
    leaf.class_counts = {leaf.leaf_class == 0 ? int64_t{8} : int64_t{1},
                         leaf.leaf_class == 0 ? int64_t{1} : int64_t{8}};
    leaf.depth = 2;
    tree.AddNode(leaf);  // 2..4
  }
  tree.mutable_node(0).left = 1;
  tree.mutable_node(0).right = 4;
  tree.mutable_node(1).left = 2;
  tree.mutable_node(1).right = 3;
  return tree;
}

int RunCmd(const std::string& cmd) {
  const int raw = std::system(cmd.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

// The shared row set: a grid straddling both models' thresholds.
std::vector<std::string> MakeRows() {
  std::vector<std::string> rows;
  for (double x : {-3.0, -1.0, 0.0, 0.5, 1.0, 2.5}) {
    for (double y : {-2.0, 0.0, 0.25, 1.0, 3.0}) {
      std::ostringstream os;
      os << x << ',' << y;
      rows.push_back(os.str());
    }
  }
  return rows;
}

// Extracts the `predicted` column of cmptool predict's CSV output.
std::vector<std::string> PredictedColumn(const std::string& csv_path) {
  std::ifstream is(csv_path);
  std::vector<std::string> out;
  std::string line;
  bool header = true;
  while (std::getline(is, line)) {
    if (header) {
      header = false;
      continue;
    }
    // record,actual,predicted,correct
    const size_t c1 = line.find(',');
    const size_t c2 = line.find(',', c1 + 1);
    const size_t c3 = line.find(',', c2 + 1);
    out.push_back(line.substr(c2 + 1, c3 - c2 - 1));
  }
  return out;
}

class ServeE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Text trees -> cmptool compile -> .cmpb blobs.
    const DecisionTree a = MakeTree(0.0, 0.25, false);
    const DecisionTree b = MakeTree(0.5, -1.0, true);
    tree_a_ = TempPath("e2e_a.tree");
    tree_b_ = TempPath("e2e_b.tree");
    blob_a_ = TempPath("e2e_a.cmpb");
    blob_b_ = TempPath("e2e_b.cmpb");
    csv_ = TempPath("e2e_rows.csv");
    pred_a_ = TempPath("e2e_pred_a.csv");
    pred_b_ = TempPath("e2e_pred_b.csv");
    port_file_ = TempPath("e2e_port.txt");
    serve_log_ = TempPath("e2e_serve.log");
    ASSERT_TRUE(SaveTree(a, tree_a_));
    ASSERT_TRUE(SaveTree(b, tree_b_));
    ASSERT_EQ(
        RunCmd(std::string(CMPTOOL_PATH) + " compile --tree " + tree_a_ +
               " --out " + blob_a_ + " 2>/dev/null"),
        0);
    ASSERT_EQ(
        RunCmd(std::string(CMPTOOL_PATH) + " compile --tree " + tree_b_ +
               " --out " + blob_b_ + " 2>/dev/null"),
        0);

    // The same rows as a labeled CSV for cmptool predict (the label
    // column is a placeholder; only the predicted column is compared).
    rows_ = MakeRows();
    std::ofstream csv(csv_);
    csv << "x,y,label\n";
    for (const std::string& row : rows_) csv << row << ",neg\n";
    csv.close();

    ASSERT_EQ(RunCmd(std::string(CMPTOOL_PATH) + " predict --data " + csv_ +
                     " --tree " + blob_a_ + " --out " + pred_a_ +
                     " >/dev/null 2>&1"),
              0);
    ASSERT_EQ(RunCmd(std::string(CMPTOOL_PATH) + " predict --data " + csv_ +
                     " --tree " + blob_b_ + " --out " + pred_b_ +
                     " >/dev/null 2>&1"),
              0);
    expect_a_ = PredictedColumn(pred_a_);
    expect_b_ = PredictedColumn(pred_b_);
    ASSERT_EQ(expect_a_.size(), rows_.size());
    ASSERT_EQ(expect_b_.size(), rows_.size());
    // The two models must actually disagree somewhere, or the swap
    // assertions below are vacuous.
    ASSERT_NE(expect_a_, expect_b_);
  }

  void TearDown() override {
    for (const std::string& p :
         {tree_a_, tree_b_, blob_a_, blob_b_, csv_, pred_a_, pred_b_,
          port_file_, serve_log_}) {
      std::remove(p.c_str());
    }
  }

  // Starts cmpserve through popen (so pclose reports its exit code) and
  // waits for the port-file handshake.
  FILE* StartDaemon(const std::string& extra_flags, int* port) {
    std::remove(port_file_.c_str());
    const std::string cmd = std::string(CMPSERVE_PATH) + " --model m=" +
                            blob_a_ + " --port 0 --port-file " + port_file_ +
                            " " + extra_flags + " 2>" + serve_log_;
    FILE* daemon = ::popen(cmd.c_str(), "r");
    if (daemon == nullptr) return nullptr;
    for (int i = 0; i < 200; ++i) {
      std::ifstream pf(port_file_);
      if (pf >> *port && *port > 0) return daemon;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::pclose(daemon);
    return nullptr;
  }

  std::vector<std::string> rows_;
  std::vector<std::string> expect_a_;
  std::vector<std::string> expect_b_;
  std::string tree_a_, tree_b_, blob_a_, blob_b_;
  std::string csv_, pred_a_, pred_b_, port_file_, serve_log_;
};

TEST_F(ServeE2eTest, ServedLabelsMatchCmptoolPredictAcrossHotSwap) {
  int port = 0;
  FILE* daemon = StartDaemon("--batch-rows 16", &port);
  ASSERT_NE(daemon, nullptr);

  auto served_labels = [&](ServeClient* client) {
    std::vector<std::string> labels;
    std::vector<std::string> replies;
    EXPECT_TRUE(client->Batch("m", rows_, &replies));
    for (const std::string& r : replies) {
      labels.push_back(r.rfind("ok ", 0) == 0 ? r.substr(3) : r);
    }
    return labels;
  };

  std::string error;
  std::string reply;
  {
    ServeClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port, &error)) << error;

    // Phase 1: served labels == cmptool predict on model A, byte for
    // byte, via both batch and single-row predict.
    EXPECT_EQ(served_labels(&client), expect_a_);
    for (size_t i = 0; i < rows_.size(); i += 7) {
      ASSERT_TRUE(client.Rpc("predict m " + rows_[i], &reply));
      EXPECT_EQ(reply, "ok " + expect_a_[i]) << rows_[i];
    }

    // Phase 2: concurrent clients hammer while the model is swapped.
    // Every reply must be a valid label from either model — no torn or
    // garbled output — and traffic must keep flowing throughout.
    std::atomic<bool> stop{false};
    std::atomic<int64_t> total{0};
    std::vector<std::thread> hammer;
    for (int t = 0; t < 4; ++t) {
      hammer.emplace_back([&] {
        ServeClient c;
        std::string err;
        if (!c.ConnectTcp("127.0.0.1", port, &err)) return;
        std::string r;
        size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t at = i++ % rows_.size();
          if (!c.Rpc("predict m " + rows_[at], &r)) break;
          EXPECT_TRUE(r == "ok " + expect_a_[at] || r == "ok " + expect_b_[at])
              << "row " << rows_[at] << " -> " << r;
          total.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(client.Rpc("swap m " + blob_b_, &reply));
    EXPECT_EQ(reply, "ok m v2");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (std::thread& t : hammer) t.join();
    EXPECT_GT(total.load(), 0);

    // Phase 3: after the swap ack, every served label matches cmptool
    // predict on model B.
    EXPECT_EQ(served_labels(&client), expect_b_);

    ASSERT_TRUE(client.Rpc("stats", &reply));
    EXPECT_NE(reply.find("\"swaps\":1"), std::string::npos) << reply;

    ASSERT_TRUE(client.Rpc("quit", &reply));
    EXPECT_EQ(reply, "ok bye");
  }

  const int status = ::pclose(daemon);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon exit status " << status;
}

TEST_F(ServeE2eTest, DaemonRefusesMissingModelWithIoExit) {
  const std::string cmd = std::string(CMPSERVE_PATH) +
                          " --model m=/nonexistent/model.cmpb 2>/dev/null";
  EXPECT_EQ(RunCmd(cmd), 3);
}

TEST_F(ServeE2eTest, DaemonRejectsBadFlagsWithUsageExit) {
  EXPECT_EQ(RunCmd(std::string(CMPSERVE_PATH) + " 2>/dev/null"), 2);
  EXPECT_EQ(RunCmd(std::string(CMPSERVE_PATH) + " --model broken 2>/dev/null"),
            2);
  EXPECT_EQ(RunCmd(std::string(CMPSERVE_PATH) + " --model m=" + blob_a_ +
                   " --frobnicate 2>/dev/null"),
            2);
  // Numeric flags take whole numbers in range only: no sign, fraction,
  // trailing text or out-of-range value, and a value must be present.
  // The deadline flag is gone with the deadline.
  for (const char* flags :
       {"--threads abc", "--threads -3", "--threads 1.5", "--threads 1025",
        "--threads", "--port abc", "--port -1", "--port 65536",
        "--port 80x", "--batch-rows 4x", "--batch-rows 0",
        "--batch-rows 1048577", "--batch-rows +4", "--batch-rows",
        "--batch-delay-us 300"}) {
    EXPECT_EQ(RunCmd(std::string(CMPSERVE_PATH) + " --model m=" + blob_a_ +
                     " " + flags + " 2>/dev/null"),
              2)
        << flags;
  }
}

}  // namespace
}  // namespace cmp
