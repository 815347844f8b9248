// End-to-end smoke test of the cmptool CLI: gen -> info -> train ->
// eval -> show -> dot -> explain -> importance, via std::system. The
// binary path is injected by CMake as CMPTOOL_PATH. The library is
// linked too, to craft hostile tables and to score the predict oracle.
//
// cmptool's exit-code contract (tested below): 0 success, 2 bad
// arguments, 3 I/O failure, 4 training failure.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"
#include "io/arff.h"
#include "io/csv.h"
#include "io/table_file.h"
#include "tree/serialize.h"

namespace {

constexpr int kBadArgs = 2;
constexpr int kIo = 3;
constexpr int kTrain = 4;

std::string ToolPath() { return CMPTOOL_PATH; }

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Runs a command, returns the tool's exit code (-1 if it died on a
// signal), captures stdout+stderr into `out`.
int RunTool(const std::string& args, std::string* out = nullptr) {
  const std::string capture = TempPath("cmptool_out.txt");
  const std::string cmd = ToolPath() + " " + args + " > " + capture + " 2>&1";
  const int raw = std::system(cmd.c_str());
  if (out != nullptr) {
    std::ifstream is(capture);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    *out = buffer.str();
  }
  std::remove(capture.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

class CmptoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = TempPath("smoke.cmpt");
    tree_ = TempPath("smoke.tree");
    ASSERT_EQ(RunTool("gen --function F2 --records 4000 --seed 5 --out " +
                  data_),
              0);
  }
  void TearDown() override {
    std::remove(data_.c_str());
    std::remove(tree_.c_str());
  }
  std::string data_;
  std::string tree_;
};

TEST_F(CmptoolTest, InfoShowsSchema) {
  std::string out;
  ASSERT_EQ(RunTool("info --data " + data_, &out), 0);
  EXPECT_NE(out.find("4000 records"), std::string::npos);
  EXPECT_NE(out.find("salary"), std::string::npos);
}

TEST_F(CmptoolTest, TrainEvalShowRoundTrip) {
  std::string out;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_,
                &out),
            0);
  EXPECT_NE(out.find("CMP"), std::string::npos);

  ASSERT_EQ(RunTool("eval --data " + data_ + " --tree " + tree_, &out), 0);
  EXPECT_NE(out.find("accuracy"), std::string::npos);

  ASSERT_EQ(RunTool("show --tree " + tree_, &out), 0);
  EXPECT_NE(out.find("leaf"), std::string::npos);
}

TEST_F(CmptoolTest, EveryAlgorithmTrains) {
  for (const std::string algo :
       {"cmp", "cmp-b", "cmp-s", "sprint", "sliq", "clouds", "rainforest",
        "exact", "windowing", "sampled"}) {
    EXPECT_EQ(RunTool("train --data " + data_ + " --algo " + algo +
                  " --out " + tree_),
              0)
        << algo;
  }
}

TEST_F(CmptoolTest, DotAndExplainAndImportance) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo exact --out " + tree_),
            0);
  std::string out;
  ASSERT_EQ(RunTool("dot --tree " + tree_, &out), 0);
  EXPECT_NE(out.find("digraph"), std::string::npos);

  ASSERT_EQ(
      RunTool("explain --data " + data_ + " --tree " + tree_ + " --record 3",
          &out),
      0);
  EXPECT_NE(out.find("=>"), std::string::npos);

  ASSERT_EQ(RunTool("importance --tree " + tree_, &out), 0);
  EXPECT_FALSE(out.empty());
}

// Extracts the "accuracy: 0.1234" figure both `eval` and `predict` print.
std::string AccuracyLine(const std::string& out) {
  const size_t at = out.find("accuracy: ");
  EXPECT_NE(at, std::string::npos) << out;
  if (at == std::string::npos) return "";
  return out.substr(at, std::string("accuracy: 0.0000").size());
}

TEST_F(CmptoolTest, PredictRoundTripMatchesEval) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);
  std::string eval_out;
  ASSERT_EQ(RunTool("eval --data " + data_ + " --tree " + tree_, &eval_out),
            0);

  const std::string csv = TempPath("predictions.csv");
  std::string predict_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --out " + csv,
                &predict_out),
            0);
  // The compiled batch path must reproduce the interpreted eval accuracy
  // digit for digit.
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));

  // Header plus one CSV row per record.
  std::ifstream is(csv);
  ASSERT_TRUE(is.good());
  std::string line;
  int64_t lines = 0;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line.substr(0, 31), "record,actual,predicted,correct");
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 4000);
  std::remove(csv.c_str());

  // Probabilities, top-k, multithreading and ensembles ride the same path.
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --probs --top-k 2 --threads 2 --out " + csv,
                &predict_out),
            0);
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ + "," +
                tree_ + " --vote prob --out " + csv,
                &predict_out),
            0);
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));

  // A top-k beyond the class count is clamped, not an out-of-bounds read.
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --top-k 99 --out " + csv,
                &predict_out),
            0);
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));
  std::remove(csv.c_str());
}

TEST_F(CmptoolTest, BadInputsFailGracefully) {
  EXPECT_NE(RunTool("train --data /does/not/exist --algo cmp --out " + tree_),
            0);
  EXPECT_NE(RunTool("train --data " + data_ + " --algo bogus --out " + tree_),
            0);
  EXPECT_NE(RunTool("frobnicate"), 0);
  EXPECT_NE(RunTool(""), 0);
}

TEST_F(CmptoolTest, ExitCodesDistinguishFailureKinds) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo exact --out " + tree_),
            0);

  // Bad arguments: unknown algorithm, unknown subcommand, missing flags,
  // out-of-range record.
  std::string out;
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo bogus --out " + tree_,
                &out),
            kBadArgs);
  // The unknown-algorithm error lists the registry's names.
  EXPECT_NE(out.find("have:"), std::string::npos) << out;
  EXPECT_NE(out.find("rainforest"), std::string::npos) << out;
  EXPECT_EQ(RunTool("frobnicate"), kBadArgs);
  EXPECT_EQ(RunTool("train --data " + data_), kBadArgs);
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp --stream"
                " --block 0 --out " + tree_),
            kBadArgs);
  // An interval count below 1 is a bad argument on every training path.
  for (const char* q : {"0", "-7"}) {
    for (const char* mode :
         {" --algo cmp", " --algo cmp-s", " --algo clouds",
          " --algo cmp --stream", " --algo cmp-stream",
          " --algo cmp-stream --stream"}) {
      EXPECT_EQ(RunTool("train --data " + data_ + mode + " --intervals " +
                        q + " --out " + tree_, &out),
                kBadArgs)
          << mode << " --intervals " << q;
      EXPECT_NE(out.find("--intervals must be >= 1"), std::string::npos)
          << out;
    }
  }
  // Thread counts are whole numbers in [0, 1024] on every path that
  // takes them: no silent fallback to all cores, no inline run for a
  // negative count, no thousands of threads.
  for (const char* bad : {"abc", "-2", "5000", "1025", "2.5", "4x", "+3", ""}) {
    for (const std::string& cmd :
         {"train --data " + data_ + " --algo cmp --out " + tree_,
          "train --data " + data_ + " --algo cmp --stream --out " + tree_,
          "train --data " + data_ + " --algo cmp-stream --out " + tree_,
          "predict --data " + data_ + " --tree " + tree_}) {
      EXPECT_EQ(RunTool(cmd + " --threads " + bad, &out), kBadArgs)
          << cmd << " --threads '" << bad << "'";
      EXPECT_NE(out.find("--threads must be a whole number in [0, 1024]"),
                std::string::npos)
          << out;
    }
  }
  // --scan-shards is gone: any value is rejected with its reason.
  for (const char* value : {"0", "4", "1024"}) {
    EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp --stream"
                      " --scan-shards " + value + " --out " + tree_,
                      &out),
              kBadArgs)
        << "--scan-shards " << value;
    EXPECT_NE(out.find("--scan-shards: removed; the shard count is automatic"),
              std::string::npos)
        << out;
  }
  // --no-codes and --no-prefetch are gone too: every CMP scan reads bin
  // codes, and --threads 1 reads blocks synchronously.
  for (const auto& [flag, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"--no-codes", "--no-codes: removed"},
           {"--no-prefetch", "--no-prefetch: removed"}}) {
    for (const char* mode : {" --algo cmp", " --algo cmp --stream"}) {
      EXPECT_EQ(RunTool("train --data " + data_ + mode + " " + flag +
                        " --out " + tree_, &out),
                kBadArgs)
          << mode << " " << flag;
      EXPECT_NE(out.find(message), std::string::npos) << out;
    }
  }
  // The lower bound itself is valid.
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp --stream"
                    " --threads 0 --out " + tree_),
            0);
  // The boosting, sketch and explain counts and fractions are read whole
  // or rejected, never up to a bad character or past an overflow.
  const std::string boost = "train --data " + data_ + " --algo boost";
  for (const auto& [args, message] :
       std::vector<std::pair<std::string, std::string>>{
           {boost + " --rounds 3abc",
            "--rounds must be a whole number in [1, 2147483647]"},
           {boost + " --rounds -4",
            "--rounds must be a whole number in [1, 2147483647]"},
           {boost + " --rounds 0",
            "--rounds must be a whole number in [1, 2147483647]"},
           {boost + " --rounds 3 --holdout 0.2zz",
            "--holdout must be a decimal number in [0, 0.9]"},
           {boost + " --rounds 3 --holdout 0.95",
            "--holdout must be a decimal number in [0, 0.9]"},
           {boost + " --rounds 3 --shrinkage 0.1x",
            "--shrinkage must be a decimal number in [0, 1]"},
           {boost + " --rounds 3 --weak-depth 2x",
            "--weak-depth must be a whole number in [0, 2147483647]"},
           {boost + " --rounds 3 --patience 0",
            "--patience must be a whole number in [1, 2147483647]"},
           {"train --data " + data_ + " --algo cmp-stream"
            " --sketch-capacity 4294967304",
            "--sketch-capacity must be a whole number in [8, 2147483647]"},
           {"train --data " + data_ + " --algo cmp-stream"
            " --sketch-capacity 7",
            "--sketch-capacity must be a whole number in [8, 2147483647]"},
           {"explain --data " + data_ + " --tree " + tree_ + " --record 3x",
            "--record must be a whole number"},
           {"explain --data " + data_ + " --tree " + tree_ + " --record -1",
            "--record must be a whole number"},
           {"gen --function F2x --records 10 --out " + TempPath("f2x.cmpt"),
            "unknown function"},
           {"gen --function F11 --records 10 --out " + TempPath("f2x.cmpt"),
            "unknown function"},
           {"gen --function F02 --records 10 --out " + TempPath("f2x.cmpt"),
            "unknown function"}}) {
    EXPECT_EQ(RunTool(args + (args.starts_with("train") ? " --out " + tree_
                                                        : std::string()),
                      &out),
              kBadArgs)
        << args;
    EXPECT_NE(out.find(message), std::string::npos) << args << ": " << out;
  }
  EXPECT_EQ(RunTool(boost + " --rounds 2 --shrinkage 1 --holdout 0.9"
                    " --weak-depth 0 --patience 1 --out " +
                    TempPath("boost_flags.tree"), &out),
            0)
      << out;
  std::remove(TempPath("boost_flags.tree").c_str());
  // predict's other numeric flags are just as strict: --top-k is a
  // whole number, --abstain a plain decimal in [0, 1].
  const std::string predict = "predict --data " + data_ + " --tree " + tree_;
  for (const auto& [flag, bad, message] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"--top-k", "2x", "--top-k must be a whole number in [1, 65536]"},
           {"--top-k", "-3", "--top-k must be a whole number in [1, 65536]"},
           {"--top-k", "0", "--top-k must be a whole number in [1, 65536]"},
           {"--top-k", "65537",
            "--top-k must be a whole number in [1, 65536]"},
           {"--abstain", "abc", "--abstain must be a decimal number in [0, 1]"},
           {"--abstain", "1.5", "--abstain must be a decimal number in [0, 1]"},
           {"--abstain", "-0.1",
            "--abstain must be a decimal number in [0, 1]"},
           {"--abstain", "0.5x",
            "--abstain must be a decimal number in [0, 1]"},
           {"--abstain", "1e-3",
            "--abstain must be a decimal number in [0, 1]"},
           {"--abstain", "nan", "--abstain must be a decimal number in [0, 1]"},
           {"--abstain", "inf", "--abstain must be a decimal number in [0, 1]"},
           {"--abstain", "", "--abstain must be a decimal number in [0, 1]"}}) {
    EXPECT_EQ(RunTool(predict + " " + flag + " " + bad, &out), kBadArgs)
        << flag << " '" << bad << "'";
    EXPECT_NE(out.find(message), std::string::npos) << out;
  }
  for (const char* good : {" --top-k 65536 --abstain 1",
                           " --top-k 1 --abstain 0",
                           " --abstain .5", " --abstain 0.25"}) {
    EXPECT_EQ(RunTool(predict + good + " --out " + TempPath("flags.csv"),
                      &out),
              0)
        << good << ": " << out;
  }
  std::remove(TempPath("flags.csv").c_str());
  // gen's counts, seed and perturbation, and train's interval and block
  // counts, are read whole or rejected, never up to a bad character.
  const std::string gen_out = " --out " + TempPath("gen_flags.cmpt");
  for (const auto& [args, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"--records -5",
            "--records must be a whole number in [0, 4294967296]"},
           {"--records abc",
            "--records must be a whole number in [0, 4294967296]"},
           {"--records 1000x",
            "--records must be a whole number in [0, 4294967296]"},
           {"--records 4294967297",
            "--records must be a whole number in [0, 4294967296]"},
           {"--records 1000 --seed 7q",
            "--seed must be a whole number in [0, 9223372036854775807]"},
           {"--records 1000 --seed -1",
            "--seed must be a whole number in [0, 9223372036854775807]"},
           {"--records 1000 --skip 1001",
            "--skip must be a whole number in [0, 1000]"},
           {"--records 1000 --skip 5x",
            "--skip must be a whole number in [0, 1000]"},
           {"--records 1000 --drift-at 1001 --drift-function F7",
            "--drift-at must be a whole number in [0, 1000]"},
           {"--records 1000 --drift-at -1 --drift-function F7",
            "--drift-at must be a whole number in [0, 1000]"},
           {"--records 1000 --perturb 1.5",
            "--perturb must be a decimal number in [0, 1]"},
           {"--records 1000 --perturb 0.1x",
            "--perturb must be a decimal number in [0, 1]"},
           {"--records 1000 --perturb -0.1",
            "--perturb must be a decimal number in [0, 1]"}}) {
    EXPECT_EQ(RunTool("gen --function F2 " + args + gen_out, &out), kBadArgs)
        << args;
    EXPECT_NE(out.find(message), std::string::npos) << args << ": " << out;
  }
  EXPECT_EQ(RunTool("gen --function F2 --records 1000 --seed 7 --skip 1000"
                    " --perturb 0.05 --drift-at 1000 --drift-function F7" +
                    gen_out, &out),
            0)
      << out;
  std::remove(TempPath("gen_flags.cmpt").c_str());
  for (const char* q : {"1x", "65537", "abc", "2.5"}) {
    EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp --intervals " +
                      q + " --out " + tree_, &out),
              kBadArgs)
        << "--intervals " << q;
    EXPECT_NE(out.find("--intervals must be >= 1"), std::string::npos)
        << out;
  }
  for (const char* mode :
       {" --algo cmp --stream", " --algo cmp-stream --stream"}) {
    for (const char* block : {"-5", "1x", "16777217"}) {
      EXPECT_EQ(RunTool("train --data " + data_ + mode + " --block " + block +
                        " --out " + tree_, &out),
                kBadArgs)
          << mode << " --block " << block;
      EXPECT_NE(out.find("--block must be a whole number in [1, 16777216]"),
                std::string::npos)
          << out;
    }
  }
  EXPECT_EQ(RunTool("explain --data " + data_ + " --tree " + tree_ +
                " --record 99999999"),
            kBadArgs);

  // I/O failures: unreadable inputs.
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp --out " + tree_),
            kIo);
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp --stream"
                " --out " + tree_),
            kIo);
  EXPECT_EQ(RunTool("eval --data " + data_ + " --tree /does/not/exist"),
            kIo);
  EXPECT_EQ(RunTool("show --tree /does/not/exist"), kIo);

  // A truncated table is caught by the scanner's size check at open.
  const std::string truncated = TempPath("truncated.cmpt");
  {
    std::ifstream is(data_, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string bytes = buffer.str();
    std::ofstream os(truncated, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(RunTool("train --data " + truncated + " --algo cmp --stream"
                " --out " + tree_),
            kIo);
  std::remove(truncated.c_str());

  // Training failure: the label column holds garbage. The file's size
  // is intact so it opens fine, and the streamed build (which sees raw
  // column bytes, unlike the in-memory loader) must fail cleanly.
  const std::string corrupt = TempPath("corrupt.cmpt");
  {
    std::ifstream is(data_, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 4u);
    for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
      bytes[i] = '\x7f';
    }
    std::ofstream os(corrupt, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(RunTool("train --data " + corrupt + " --algo cmp --stream"
                " --out " + tree_),
            kTrain);
  std::remove(corrupt.c_str());

  // An unwritable prediction output: /dev/full accepts the open and fails
  // every write, so only a check after the final flush can catch it.
  if (std::ifstream("/dev/full").good()) {
    EXPECT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                      " --out /dev/full",
                      &out),
              kIo);
    EXPECT_NE(out.find("failed to write /dev/full"), std::string::npos)
        << out;
  }
}

TEST_F(CmptoolTest, CompileAndBlobPredictFollowTheExitCodeContract) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);

  // Success path: compile a blob, then predict from it. The blob's
  // accuracy must match the text tree's digit for digit.
  const std::string blob = TempPath("smoke.cmpb");
  const std::string csv = TempPath("blob_pred.csv");
  std::string out;
  ASSERT_EQ(RunTool("compile --tree " + tree_ + " --out " + blob, &out), 0);
  EXPECT_NE(out.find("compiled 1 tree"), std::string::npos) << out;

  std::string text_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --out " + csv,
                &text_out),
            0);
  std::string blob_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + blob +
                " --out " + csv,
                &blob_out),
            0);
  EXPECT_EQ(AccuracyLine(blob_out), AccuracyLine(text_out));

  // An ensemble blob compiles from a comma-separated tree list and
  // predicts through the same path.
  const std::string blob2 = TempPath("smoke2.cmpb");
  ASSERT_EQ(RunTool("compile --tree " + tree_ + "," + tree_ + " --out " +
                blob2),
            0);
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + blob2 +
                " --out " + csv,
                &blob_out),
            0);
  EXPECT_EQ(AccuracyLine(blob_out), AccuracyLine(text_out));

  // Bad arguments: missing flags.
  EXPECT_EQ(RunTool("compile --tree " + tree_), kBadArgs);
  EXPECT_EQ(RunTool("compile --out " + blob), kBadArgs);
  EXPECT_EQ(RunTool("compile"), kBadArgs);

  // I/O failures: unreadable tree, unwritable output, corrupt blob.
  EXPECT_EQ(RunTool("compile --tree /does/not/exist --out " + blob), kIo);
  EXPECT_EQ(RunTool("compile --tree " + tree_ + " --out /no/such/dir/x.cmpb"),
            kIo);
  const std::string corrupt = TempPath("corrupt.cmpb");
  {
    std::ifstream is(blob, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 16u);
    bytes[9] ^= '\x5a';  // inside the header, past the magic
    std::ofstream os(corrupt, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(RunTool("predict --data " + data_ + " --tree " + corrupt +
                " --out " + csv),
            kIo);
  EXPECT_EQ(RunTool("predict --data " + data_ + " --tree /absent.cmpb" +
                " --out " + csv),
            kIo);

  for (const std::string& p : {blob, blob2, csv, corrupt}) {
    std::remove(p.c_str());
  }
}

// The number after `"key": ` in one line of --stats-json output, or -1
// when the key is missing.
double JsonNumber(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

TEST_F(CmptoolTest, StatsJsonEmitsObserverMetrics) {
  const std::string stats = TempPath("stats.json");
  std::string out;
  std::string line;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_ +
                " --stats-json " + stats,
                &out),
            0);
  std::ifstream is(stats);
  ASSERT_TRUE(is.good());
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"builder\": \"CMP\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"records\": 4000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"passes\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"scan_seconds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontier_fresh\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tree_nodes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos) << json;
  // Setup (grids, marks, bin codes) is the time before the first pass:
  // part of the build's wall time, and printed on the summary line.
  double setup = -1.0;
  double wall = -1.0;
  for (std::istringstream lines(json); std::getline(lines, line);) {
    if (line.find("\"setup_seconds\": ") != std::string::npos) {
      setup = JsonNumber(line, "setup_seconds");
    }
    if (line.find("\"wall_seconds\": ") != std::string::npos) {
      wall = JsonNumber(line, "wall_seconds");
    }
  }
  EXPECT_GT(setup, 0.0) << json;
  EXPECT_LE(setup, wall) << json;
  EXPECT_NE(out.find(" setup_s="), std::string::npos) << out;
  // The scan's two phases are reported per pass and fit inside it.
  int pass_lines = 0;
  for (std::istringstream lines(json); std::getline(lines, line);) {
    if (line.find("{\"pass\": ") == std::string::npos) continue;
    ++pass_lines;
    const double scan = JsonNumber(line, "scan_seconds");
    const double route = JsonNumber(line, "route_seconds");
    const double kernel = JsonNumber(line, "kernel_seconds");
    ASSERT_GE(route, 0.0) << line;
    ASSERT_GE(kernel, 0.0) << line;
    EXPECT_LE(route + kernel, scan * (1.0 + 1e-5) + 1e-9) << line;
  }
  EXPECT_GT(pass_lines, 0) << json;
  std::remove(stats.c_str());

  // The streamed path feeds the same observer (real I/O bytes included).
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-b --stream"
                " --block 512 --out " + tree_ + " --stats-json " + stats,
                &out),
            0);
  std::ifstream is2(stats);
  ASSERT_TRUE(is2.good());
  std::ostringstream buffer2;
  buffer2 << is2.rdbuf();
  const std::string json2 = buffer2.str();
  EXPECT_NE(json2.find("\"builder\": \"CMP-B\""), std::string::npos) << json2;
  EXPECT_NE(json2.find("\"bytes_read\""), std::string::npos) << json2;
  EXPECT_EQ(json2.find("\"setup_seconds\": 0,"), std::string::npos) << json2;
  std::remove(stats.c_str());

  // Builders outside the CMP family report no setup.
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo sliq --out " + tree_ +
                    " --stats-json " + stats,
                    &out),
            0);
  std::ifstream is_sliq(stats);
  std::ostringstream buffer_sliq;
  buffer_sliq << is_sliq.rdbuf();
  EXPECT_NE(buffer_sliq.str().find("\"setup_seconds\": 0,"),
            std::string::npos)
      << buffer_sliq.str();
  EXPECT_NE(out.find(" setup_s=0 "), std::string::npos) << out;
  std::remove(stats.c_str());

  // The line-search split of plan is reported per pass; CMP-S searches
  // no lines, so its fields read 0 in every pass.
  for (const std::string field :
       {"line_search_seconds", "line_refine_seconds", "lines_evaluated",
        "lines_skipped"}) {
    EXPECT_NE(json.find("\"" + field + "\": "), std::string::npos) << json;
  }
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-s --out " +
                tree_ + " --stats-json " + stats,
                &out),
            0);
  std::ifstream is3(stats);
  ASSERT_TRUE(is3.good());
  std::ostringstream buffer3;
  buffer3 << is3.rdbuf();
  const std::string json3 = buffer3.str();
  auto count = [&json3](const std::string& needle) {
    int n = 0;
    for (size_t at = json3.find(needle); at != std::string::npos;
         at = json3.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const std::string field :
       {"line_search_seconds", "line_refine_seconds", "lines_evaluated",
        "lines_skipped"}) {
    const std::string key = "\"" + field + "\": ";
    EXPECT_GT(count(key), 0) << json3;
    EXPECT_EQ(count(key + "0,"), count(key)) << json3;
  }
  std::remove(stats.c_str());
}

// The phase ledger of a CMP build: a pass's collected partitions and its
// fresh and pending nodes run as one round of tasks, whose wall time is
// split between finish_seconds and plan_seconds by the busy seconds of
// the two kinds of task. No phase is negative; a round without collects
// reports no finish time and one without plan work no plan time; and
// setup plus every pass's scan, finish and plan fits in the build's wall
// time. The table is big enough that rounds mix collects and plan work.
TEST_F(CmptoolTest, StatsJsonPhasesSumWithinWall) {
  const std::string data = TempPath("ledger.cmpt");
  const std::string stats = TempPath("ledger.json");
  ASSERT_EQ(RunTool("gen --function F7 --records 40000 --seed 241 --out " +
                    data),
            0);
  for (const std::string algo : {"cmp", "cmp-b", "cmp-s"}) {
    SCOPED_TRACE(algo);
    ASSERT_EQ(RunTool("train --data " + data + " --algo " + algo +
                      " --threads 4 --out " + tree_ + " --stats-json " +
                      stats),
              0);
    std::ifstream is(stats);
    double phases = 0.0;
    double setup = -1.0;
    double wall = -1.0;
    double load = -1.0;
    double save = -1.0;
    int mixed = 0;
    for (std::string line; std::getline(is, line);) {
      if (line.find("\"io\": ") != std::string::npos) {
        load = JsonNumber(line, "load_s");
        save = JsonNumber(line, "save_s");
      }
      if (line.find("\"setup_seconds\": ") != std::string::npos) {
        setup = JsonNumber(line, "setup_seconds");
      }
      if (line.find("\"wall_seconds\": ") != std::string::npos) {
        wall = JsonNumber(line, "wall_seconds");
      }
      if (line.find("{\"pass\": ") == std::string::npos) continue;
      const double scan = JsonNumber(line, "scan_seconds");
      const double finish = JsonNumber(line, "finish_seconds");
      const double plan = JsonNumber(line, "plan_seconds");
      EXPECT_GE(scan, 0.0) << line;
      EXPECT_GE(finish, 0.0) << line;
      EXPECT_GE(plan, 0.0) << line;
      const bool collects = JsonNumber(line, "frontier_collect") > 0;
      const bool plans = JsonNumber(line, "frontier_fresh") +
                             JsonNumber(line, "frontier_pending") >
                         0;
      if (!collects) {
        EXPECT_EQ(finish, 0.0) << line;
      }
      if (!plans) {
        EXPECT_EQ(plan, 0.0) << line;
      }
      if (collects && plans) ++mixed;
      phases += scan + finish + plan;
    }
    EXPECT_GT(mixed, 0);
    EXPECT_GE(setup, 0.0);
    // The load and save around the build are reported beside it.
    EXPECT_GE(load, 0.0);
    EXPECT_GE(save, 0.0);
    // The JSON prints six significant digits.
    EXPECT_LE(setup + phases, wall * (1.0 + 1e-4) + 1e-6)
        << "setup " << setup << " phases " << phases << " wall " << wall;
  }
  std::remove(data.c_str());
  std::remove(stats.c_str());
}

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST_F(CmptoolTest, BoostTrainsScoresAndCompiles) {
  // Text forest out: the boost knobs parse, the output names the tree
  // count, and the saved file is the multi-tree forest format.
  std::string out;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo boost --rounds 6"
                " --shrinkage 0.2 --weak-depth 4 --out " + tree_,
                &out),
            0);
  EXPECT_NE(out.find("trees"), std::string::npos) << out;
  EXPECT_EQ(Slurp(tree_).substr(0, 11), "cmp-forest ");

  // Additive forests score through --vote prob (majority voting over
  // the pseudo-count leaves is NOT the boosted model).
  const std::string csv = TempPath("boost_pred.csv");
  std::string text_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --vote prob --out " + csv,
                &text_out),
            0);

  // Straight-to-blob training compiles the same forest; the blob path
  // must reproduce the text path's accuracy digit for digit.
  const std::string blob = TempPath("boost.cmpb");
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo boost --rounds 6"
                " --shrinkage 0.2 --weak-depth 4 --out " + blob,
                &out),
            0);
  std::string blob_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + blob +
                " --vote prob --out " + csv,
                &blob_out),
            0);
  EXPECT_EQ(AccuracyLine(blob_out), AccuracyLine(text_out));

  // compile accepts the forest text file and produces the same blob.
  const std::string blob2 = TempPath("boost2.cmpb");
  ASSERT_EQ(RunTool("compile --tree " + tree_ + " --out " + blob2), 0);
  EXPECT_EQ(Slurp(blob2), Slurp(blob));

  // eval and show accept the forest too: eval scores the average-prob
  // vote (same accuracy line as predict --vote prob), show prints one
  // section per member tree.
  std::string eval_out;
  ASSERT_EQ(RunTool("eval --data " + data_ + " --tree " + tree_,
                &eval_out),
            0);
  EXPECT_EQ(AccuracyLine(eval_out), AccuracyLine(text_out));
  std::string show_out;
  ASSERT_EQ(RunTool("show --tree " + tree_, &show_out), 0);
  EXPECT_NE(show_out.find("=== tree 1/6 ==="), std::string::npos);
  EXPECT_NE(show_out.find("=== tree 6/6 ==="), std::string::npos);

  for (const std::string& p : {csv, blob, blob2}) std::remove(p.c_str());
}

TEST_F(CmptoolTest, StreamTrainRefitRoundTrip) {
  const std::string sidecar = TempPath("stream.cmps");
  const std::string refit_data = TempPath("refit.cmpt");
  const std::string refit_tree = TempPath("refit.tree");
  const std::string stats = TempPath("stream_stats.json");

  // cmp-stream trains, saves the sketch sidecar, and the new observer
  // fields land in --stats-json.
  std::string out;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --out " +
                tree_ + " --sidecar " + sidecar + " --stats-json " + stats,
                &out),
            0);
  EXPECT_NE(out.find("sketch sidecar"), std::string::npos) << out;
  const std::string json = Slurp(stats);
  EXPECT_NE(json.find("\"builder\": \"CMP-stream\""), std::string::npos);
  EXPECT_NE(json.find("\"sketch_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"refit_leaves_regrown\""), std::string::npos);

  // In-memory and out-of-core ingestion produce the same tree bytes.
  const std::string mem_tree = Slurp(tree_);
  ASSERT_FALSE(mem_tree.empty());
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --stream"
                " --block 333 --threads 3 --out " + tree_),
            0);
  EXPECT_EQ(Slurp(tree_), mem_tree);

  // Refit with drifted data: exit 0, updated tree + sidecar written.
  ASSERT_EQ(RunTool("gen --function F7 --records 4000 --seed 6 --out " +
                refit_data),
            0);
  ASSERT_EQ(RunTool("refit --data " + refit_data + " --tree " + tree_ +
                " --sidecar " + sidecar + " --out " + refit_tree +
                " --stats-json " + stats,
                &out),
            0);
  EXPECT_NE(out.find("regrown"), std::string::npos) << out;
  EXPECT_NE(Slurp(stats).find("\"refit_leaves_regrown\""),
            std::string::npos);
  EXPECT_FALSE(Slurp(refit_tree).empty());

  // The refit tree still evaluates.
  ASSERT_EQ(
      RunTool("eval --data " + refit_data + " --tree " + refit_tree, &out),
      0);
  EXPECT_NE(out.find("accuracy"), std::string::npos);

  for (const std::string& p : {sidecar, refit_data, refit_tree, stats}) {
    std::remove(p.c_str());
  }
}

TEST_F(CmptoolTest, StreamAndRefitFlagValidation) {
  const std::string sidecar = TempPath("val.cmps");
  std::string out;

  // --workers is rejected up front, with its reason, whatever the
  // algorithm.
  for (const char* algo : {"cmp", "cmp-stream"}) {
    EXPECT_EQ(RunTool("train --data " + data_ + " --algo " + algo +
                      " --workers 2 --out " + tree_,
                      &out),
              kBadArgs);
    EXPECT_NE(out.find("distributed training was removed"),
              std::string::npos)
        << out;
  }

  // Bad sketch capacity and bad block size are usage errors.
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream"
                " --sketch-capacity 2 --out " + tree_),
            kBadArgs);
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --stream"
                " --block 0 --out " + tree_),
            kBadArgs);

  // Unreadable input follows the I/O exit code on both paths.
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp-stream"
                " --out " + tree_),
            kIo);
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp-stream"
                " --stream --out " + tree_),
            kIo);

  // Refit requires a single tree: a boosted forest is rejected with a
  // clear message.
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo boost --rounds 3"
                " --out " + tree_),
            0);
  EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_ +
                " --sidecar " + sidecar + " --out " + tree_ + ".out",
                &out),
            kBadArgs);
  EXPECT_NE(out.find("boosted ensembles cannot be refit"),
            std::string::npos)
      << out;

  // Refit on a tree without a matching sidecar: the sidecar is missing
  // (I/O), and a bad threshold is a usage error.
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --out " +
                tree_ + " --sidecar " + sidecar),
            0);
  EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_ +
                " --sidecar /does/not/exist.cmps --out " + tree_ + ".out"),
            kIo);
  for (const char* threshold : {"1.5", "0.5x", "-0.1"}) {
    EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_ +
                      " --sidecar " + sidecar + " --out " + tree_ + ".out"
                      " --drift-threshold " + threshold),
              kBadArgs)
        << threshold;
  }
  // Missing required flags fall back to usage.
  EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_), kBadArgs);
  std::remove(sidecar.c_str());
  std::remove((tree_ + ".out").c_str());
}

TEST_F(CmptoolTest, GenDriftFlags) {
  const std::string drifted = TempPath("drifted.cmpt");
  std::string out;
  ASSERT_EQ(RunTool("gen --function F2 --records 2000 --seed 5"
                " --drift-at 1000 --drift-function F7 --out " + drifted,
                &out),
            0);
  EXPECT_NE(out.find("2000 records"), std::string::npos);

  // Covariates are the stationary stream's: same schema, same size.
  ASSERT_EQ(RunTool("info --data " + drifted, &out), 0);
  EXPECT_NE(out.find("2000 records"), std::string::npos);
  EXPECT_NE(out.find("salary"), std::string::npos);

  // Both drift flags are required together; the index must be in range;
  // the drift function must parse.
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-at 500"
                " --out " + drifted),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-function F7"
                " --out " + drifted),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-at 5000"
                " --drift-function F7 --out " + drifted),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-at 500"
                " --drift-function F77 --out " + drifted),
            kBadArgs);

  // --skip splits one seeded stream into an exact prefix + suffix.
  const std::string tail = TempPath("tail.cmpt");
  ASSERT_EQ(RunTool("gen --function F2 --records 2000 --seed 5 --skip 1500"
                " --out " + tail,
                &out),
            0);
  EXPECT_NE(out.find("500 records"), std::string::npos);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --skip 2500 --out " +
                tail),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --skip -1 --out " +
                tail),
            kBadArgs);
  std::remove(tail.c_str());
  std::remove(drifted.c_str());
}

TEST_F(CmptoolTest, KernelFlagSelectsTierAndRejectsUnknown) {
  // --kernel scalar and --kernel auto must produce byte-identical trees
  // (the bit-identical-trees contract, CLI edition).
  ASSERT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel scalar --out " + tree_),
            0);
  const std::string scalar_tree = Slurp(tree_);
  ASSERT_FALSE(scalar_tree.empty());
  ASSERT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel auto --out " + tree_),
            0);
  EXPECT_EQ(Slurp(tree_), scalar_tree);

  // The selected tier lands in --stats-json as kernel_isa.
  const std::string stats = TempPath("kernel_stats.json");
  ASSERT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel scalar --out " + tree_ +
                " --stats-json " + stats),
            0);
  EXPECT_NE(Slurp(stats).find("\"kernel_isa\": \"scalar\""),
            std::string::npos);
  std::remove(stats.c_str());

  // An unknown tier is a usage error, reported before any work runs.
  std::string out;
  EXPECT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel bogus --out " + tree_,
                &out),
            kBadArgs);
  EXPECT_NE(out.find("unknown kernel tier 'bogus'"), std::string::npos)
      << out;

  // sse2 is not a tier: naming it is a usage error, and the message
  // lists the tiers that exist.
  EXPECT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                        " --kernel sse2",
                    &out),
            kBadArgs);
  EXPECT_NE(out.find("unknown kernel tier 'sse2'"), std::string::npos)
      << out;
  EXPECT_NE(out.find("auto|scalar|avx2"), std::string::npos) << out;
}

// Rewrites `bytes` (a whole .cmpt file) so categorical attribute `a`
// holds `code` on every 7th record.
void PoisonCategorical(const cmp::TableLayout& layout, cmp::AttrId a,
                       int64_t n, int32_t code, std::string* bytes) {
  for (int64_t r = 0; r < n; r += 7) {
    std::memcpy(&(*bytes)[layout.column_offsets[a] + r * sizeof(int32_t)],
                &code, sizeof(code));
  }
}

void PoisonNumeric(const cmp::TableLayout& layout, cmp::AttrId a, int64_t n,
                   double value, std::string* bytes) {
  for (int64_t r = 0; r < n; r += 7) {
    std::memcpy(&(*bytes)[layout.column_offsets[a] + r * sizeof(double)],
                &value, sizeof(value));
  }
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A hostile table fails like a bad label or a truncated file does on the
// same path: 3 when loaded whole, 3 at open and 4 mid-pass when streamed.
// Nothing aborts or segfaults (either would surface as -1 or 134 here).
TEST_F(CmptoolTest, HostileTablesFailWithTheirExitCodes) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);
  cmp::Schema schema;
  int64_t n = 0;
  cmp::TableLayout layout;
  ASSERT_TRUE(cmp::ReadTableHeader(data_, &schema, &n));
  ASSERT_TRUE(cmp::ComputeTableLayout(schema, n, &layout));
  const std::string good = Slurp(data_);
  const std::string bad = TempPath("hostile.cmpt");
  const std::string csv = TempPath("hostile.csv");

  // An out-of-range categorical code (elevel has 5 values).
  std::string bytes = good;
  PoisonCategorical(layout, schema.FindAttr("elevel"), n, 100000000, &bytes);
  WriteFile(bad, bytes);
  std::string out;
  for (const char* algo : {"cmp", "sliq"}) {
    EXPECT_EQ(RunTool("train --data " + bad + " --algo " + algo + " --out " +
                      tree_,
                      &out),
              kIo)
        << algo << ": " << out;
    EXPECT_NE(out.find("failed to read"), std::string::npos) << out;
  }
  for (const char* algo : {"cmp", "cmp-s"}) {
    EXPECT_EQ(RunTool("train --data " + bad + " --algo " + algo +
                      " --stream --block 1000 --out " + tree_),
              kTrain)
        << algo;
  }
  EXPECT_EQ(RunTool("predict --data " + bad + " --tree " + tree_ + " --out " +
                    csv),
            kIo);
  EXPECT_EQ(RunTool("info --data " + bad), kIo);

  // NaN salaries: the format has no missing-value encoding, and NaN has
  // no place in the order the grids and split searches need.
  bytes = good;
  PoisonNumeric(layout, schema.FindAttr("salary"), n,
                std::numeric_limits<double>::quiet_NaN(), &bytes);
  WriteFile(bad, bytes);
  for (const char* algo : {"cmp", "cmp-s", "sliq", "clouds"}) {
    EXPECT_EQ(RunTool("train --data " + bad + " --algo " + algo + " --out " +
                      tree_,
                      &out),
              kIo)
        << algo << ": " << out;
  }
  for (const char* algo : {"cmp", "cmp-s", "cmp-stream"}) {
    EXPECT_EQ(RunTool("train --data " + bad + " --algo " + algo +
                      " --stream --block 1000 --out " + tree_),
              kTrain)
        << algo;
  }
  EXPECT_EQ(RunTool("predict --data " + bad + " --tree " + tree_ + " --out " +
                    csv),
            kIo);
  EXPECT_EQ(RunTool("eval --data " + bad + " --tree " + tree_), kIo);
  EXPECT_EQ(RunTool("info --data " + bad), kIo);

  // Infinities are ordinary values: the table trains, streamed or not,
  // to one tree at any thread count.
  bytes = good;
  PoisonNumeric(layout, schema.FindAttr("salary"), n,
                std::numeric_limits<double>::infinity(), &bytes);
  PoisonNumeric(layout, schema.FindAttr("loan"), n,
                -std::numeric_limits<double>::infinity(), &bytes);
  WriteFile(bad, bytes);
  const std::string inf_tree = TempPath("inf.tree");
  ASSERT_EQ(RunTool("train --data " + bad + " --algo cmp --out " + inf_tree),
            0);
  EXPECT_EQ(RunTool("train --data " + bad + " --algo cmp --threads 4 --out " +
                    tree_),
            0);
  EXPECT_EQ(Slurp(tree_), Slurp(inf_tree));
  EXPECT_EQ(RunTool("train --data " + bad + " --algo cmp --stream --block " +
                    "1000 --threads 2 --out " + tree_),
            0);
  EXPECT_EQ(Slurp(tree_), Slurp(inf_tree));
  std::remove(inf_tree.c_str());

  // A record count of 2^40 on a 4000-row file.
  bytes = good;
  const int64_t hostile = int64_t{1} << 40;
  std::memcpy(&bytes[layout.count_offset], &hostile, sizeof(hostile));
  WriteFile(bad, bytes);
  EXPECT_EQ(RunTool("info --data " + bad, &out), kIo) << out;
  EXPECT_EQ(RunTool("predict --data " + bad + " --tree " + tree_ + " --out " +
                    csv),
            kIo);
  EXPECT_EQ(RunTool("train --data " + bad + " --algo cmp --out " + tree_),
            kIo);
  EXPECT_EQ(RunTool("train --data " + bad + " --algo cmp --stream --out " +
                    tree_),
            kIo);

  // Truncated mid-column and padded with trailing bytes.
  for (const std::string& mangled :
       {good.substr(0, good.size() / 2), good + std::string(8, '\0')}) {
    WriteFile(bad, mangled);
    EXPECT_EQ(RunTool("info --data " + bad), kIo);
    EXPECT_EQ(RunTool("predict --data " + bad + " --tree " + tree_ +
                      " --out " + csv),
              kIo);
    EXPECT_EQ(RunTool("train --data " + bad + " --algo cmp --out " + tree_),
              kIo);
  }
  std::remove(bad.c_str());
  std::remove(csv.c_str());
}

// Setup reads each numeric column in chunks, pass after pass, and checks
// every chunk it reads: a NaN only in the last record of the last numeric
// column, or only in record 0 of the first, fails a streamed train with
// 4 and writes no tree, with small blocks and with one whole-table
// block. Loaded whole, the table fails with 3.
TEST_F(CmptoolTest, NaNAtEitherEndFailsStreamedSetup) {
  cmp::Schema schema;
  int64_t n = 0;
  cmp::TableLayout layout;
  ASSERT_TRUE(cmp::ReadTableHeader(data_, &schema, &n));
  ASSERT_TRUE(cmp::ComputeTableLayout(schema, n, &layout));
  const std::vector<cmp::AttrId> numeric = schema.NumericAttrs();
  const std::string good = Slurp(data_);
  const std::string bad = TempPath("nan_end.cmpt");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Spot {
    cmp::AttrId attr;
    int64_t record;
  };
  for (const Spot spot :
       {Spot{numeric.back(), n - 1}, Spot{numeric.front(), 0}}) {
    std::string bytes = good;
    std::memcpy(&bytes[layout.column_offsets[spot.attr] +
                       spot.record * sizeof(double)],
                &nan, sizeof(nan));
    WriteFile(bad, bytes);
    const std::string what = schema.attr(spot.attr).name + " record " +
                             std::to_string(spot.record);
    for (const std::string& block :
         {std::string("1000"), std::to_string(n)}) {
      std::remove(tree_.c_str());
      EXPECT_EQ(RunTool("train --data " + bad + " --stream --block " + block +
                        " --out " + tree_),
                kTrain)
          << what << " block " << block;
      EXPECT_FALSE(std::ifstream(tree_).good()) << what << " block " << block;
    }
    std::remove(tree_.c_str());
    EXPECT_EQ(RunTool("train --data " + bad + " --out " + tree_), kIo) << what;
    EXPECT_FALSE(std::ifstream(tree_).good()) << what;
  }
}


// Attribute entries every schema decoder rejects (the rule in
// common/schema.h): a kind byte other than 0 or 1, which must not pass
// for categorical, and a categorical cardinality beyond 2^24, which must
// not reach the builders' histogram allocations.
TEST_F(CmptoolTest, HostileSchemaEntriesExitThree) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);
  const std::string good = Slurp(data_);
  // F2's fourth attribute, elevel: kind byte at 72, cardinality at 73.
  ASSERT_EQ(good.substr(66, 6), "elevel");
  ASSERT_EQ(good[72], 1);
  const std::string bad = TempPath("hostile_entry.cmpt");
  const std::string csv = TempPath("hostile_entry.csv");
  std::string kind7 = good;
  kind7[72] = 7;
  std::string huge_card = good;
  const int32_t card = std::numeric_limits<int32_t>::max();
  std::memcpy(&huge_card[73], &card, sizeof(card));
  for (const std::string& bytes : {kind7, huge_card}) {
    WriteFile(bad, bytes);
    std::string out;
    for (const std::string& cmd :
         {"train --data " + bad + " --algo cmp --out " + tree_,
          "train --data " + bad + " --algo cmp --stream --out " + tree_,
          "predict --data " + bad + " --tree " + tree_ + " --out " + csv,
          "eval --data " + bad + " --tree " + tree_}) {
      EXPECT_EQ(RunTool(cmd, &out), kIo) << cmd << ": " << out;
    }
  }
  std::remove(bad.c_str());
  std::remove(csv.c_str());
}

// /dev/full accepts the open and fails every write, so only a check after
// the final flush catches a small output. Every writer exits 3.
TEST_F(CmptoolTest, WritesToAFullDeviceExitThree) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  const std::string sidecar = TempPath("full.cmps");
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --out " +
                    tree_ + " --sidecar " + sidecar),
            0);
  std::string out;
  for (const std::string& cmd :
       {std::string("gen --function F2 --records 10 --out /dev/full"),
        "compile --tree " + tree_ + " --out /dev/full",
        "train --data " + data_ + " --algo cmp --out /dev/full",
        "train --data " + data_ + " --algo cmp --stream --out /dev/full",
        "train --data " + data_ + " --algo boost --rounds 2 --out /dev/full",
        "train --data " + data_ + " --algo cmp-stream --out " + tree_ +
            ".2 --sidecar /dev/full",
        "refit --data " + data_ + " --tree " + tree_ + " --sidecar " +
            sidecar + " --out " + tree_ + ".3 --sidecar-out /dev/full",
        "predict --data " + data_ + " --tree " + tree_ + " --out /dev/full"}) {
    EXPECT_EQ(RunTool(cmd, &out), kIo) << cmd << ": " << out;
  }
  for (const std::string& p : {sidecar, tree_ + ".2", tree_ + ".3"}) {
    std::remove(p.c_str());
  }
}

// The model `cmptool predict --vote prob` builds from `trees`.
cmp::BatchPredictor ProbVote(const std::vector<cmp::DecisionTree>& trees,
                             const cmp::PredictOptions& opts) {
  std::vector<cmp::CompiledTree> compiled;
  for (const cmp::DecisionTree& t : trees) {
    compiled.push_back(cmp::CompiledTree::Compile(t));
  }
  return cmp::BatchPredictor(std::move(compiled), cmp::VoteKind::kAverageProb,
                             opts);
}

// The predict CSV exactly as the original writer rendered it, streaming
// every field through an ostream with default formatting. It is the
// byte-for-byte oracle for the buffered writer.
std::string OstreamCsv(const cmp::Dataset& ds, const cmp::Schema& model_schema,
                       const cmp::PredictOptions& opts,
                       const cmp::BatchResult& result) {
  std::ostringstream csv;
  auto class_name = [&model_schema](cmp::ClassId c) -> std::string {
    if (c == cmp::kInvalidClass) return "?";
    return c < model_schema.num_classes() ? model_schema.class_name(c)
                                          : "class" + std::to_string(c);
  };
  csv << "record,actual,predicted,correct";
  if (opts.want_probs) {
    for (cmp::ClassId c = 0; c < model_schema.num_classes(); ++c) {
      csv << ",prob_" << model_schema.class_name(c);
    }
  }
  if (opts.top_k > 1) {
    for (int k = 0; k < opts.top_k; ++k) csv << ",top" << (k + 1);
  }
  csv << '\n';
  const int32_t nc = model_schema.num_classes();
  for (cmp::RecordId r = 0; r < ds.num_records(); ++r) {
    const cmp::ClassId actual = ds.label(r);
    const cmp::ClassId predicted = result.labels[r];
    csv << r << ',' << ds.schema().class_name(actual) << ','
        << class_name(predicted) << ',' << (actual == predicted ? 1 : 0);
    if (opts.want_probs) {
      for (int32_t c = 0; c < nc; ++c) {
        csv << ',' << result.probs[static_cast<size_t>(r) * nc + c];
      }
    }
    if (opts.top_k > 1) {
      for (int k = 0; k < opts.top_k; ++k) {
        csv << ',' << class_name(result.topk[static_cast<size_t>(r) *
                                             opts.top_k + k]);
      }
    }
    csv << '\n';
  }
  return csv.str();
}

// A cmp-forest holding one tree predicts exactly like the tree file, under
// either --vote: the leaf's own class and the leaf's probabilities. Each
// leaf here names a class that is not the argmax of its counts, as a
// text tree may, so routing the lone tree through either vote combiner
// changes the bytes.
TEST_F(CmptoolTest, OneTreeForestPredictsLikeItsTree) {
  const cmp::Schema schema({{"x", cmp::AttrKind::kNumeric, 0}},
                           {"a", "b", "c"});
  cmp::DecisionTree tree(schema);
  cmp::TreeNode root;
  root.is_leaf = false;
  root.split = cmp::Split::Numeric(0, 0.0);
  const cmp::NodeId root_id = tree.AddNode(root);
  cmp::TreeNode leaf;
  leaf.is_leaf = true;
  leaf.depth = 1;
  leaf.leaf_class = 1;  // p = (0.6, 0.3, 0.1)
  leaf.class_counts = {6, 3, 1};
  const cmp::NodeId left = tree.AddNode(leaf);
  leaf.leaf_class = 0;  // p = (0.2, 0.3, 0.5)
  leaf.class_counts = {2, 3, 5};
  const cmp::NodeId right = tree.AddNode(leaf);
  tree.mutable_node(root_id).left = left;
  tree.mutable_node(root_id).right = right;
  cmp::Dataset ds(schema);
  for (int i = 0; i < 12; ++i) ds.Append({i % 2 == 0 ? -1.0 : 1.0}, {}, i % 3);

  const std::string data = TempPath("one_tree.cmpt");
  const std::string tree_path = TempPath("one_tree.tree");
  const std::string forest_path = TempPath("one_tree.forest");
  const std::string want = TempPath("one_tree_want.csv");
  const std::string got = TempPath("one_tree_got.csv");
  ASSERT_TRUE(cmp::SaveTableFile(ds, data));
  ASSERT_TRUE(cmp::SaveTree(tree, tree_path));
  ASSERT_TRUE(cmp::SaveForest({tree}, forest_path));
  // Record 0 lands in the left leaf.
  for (const auto& [flags, row0] :
       {std::pair<std::string, std::string>{"", "0,a,b,0"},
        {" --probs --top-k 2", "0,a,b,0,0.6,0.3,0.1,a,b"},
        {" --probs --top-k 2 --abstain 0.55", "0,a,?,0,0.6,0.3,0.1,a,b"}}) {
    ASSERT_EQ(RunTool("predict --data " + data + " --tree " + tree_path +
                      flags + " --out " + want),
              0);
    EXPECT_NE(Slurp(want).find("\n" + row0 + "\n"), std::string::npos)
        << flags;
    for (const std::string vote : {"majority", "prob"}) {
      ASSERT_EQ(RunTool("predict --data " + data + " --tree " + forest_path +
                        " --vote " + vote + flags + " --out " + got),
                0);
      EXPECT_TRUE(Slurp(got) == Slurp(want)) << "--vote " << vote << flags;
    }
  }
  for (const std::string& p : {data, tree_path, forest_path, want, got}) {
    std::remove(p.c_str());
  }
}

TEST_F(CmptoolTest, PredictCsvMatchesTheOstreamWriterByteForByte) {
  // Two different pruned trees on a harder function, so leaves are
  // impure and the averaged probabilities fractional.
  const std::string data = TempPath("oracle.cmpt");
  const std::string tree_a = TempPath("oracle_a.tree");
  const std::string tree_b = TempPath("oracle_b.tree");
  const std::string csv = TempPath("oracle.csv");
  ASSERT_EQ(RunTool("gen --function F7 --records 20000 --seed 8 --out " +
                    data),
            0);
  ASSERT_EQ(RunTool("train --data " + data + " --algo cmp --out " + tree_a),
            0);
  ASSERT_EQ(RunTool("train --data " + data + " --algo sliq --out " + tree_b),
            0);
  cmp::Dataset ds;
  std::vector<cmp::DecisionTree> trees, second;
  ASSERT_TRUE(cmp::LoadTableFile(data, &ds));
  ASSERT_TRUE(cmp::LoadTrees(tree_a, &trees));
  ASSERT_TRUE(cmp::LoadTrees(tree_b, &second));
  trees.push_back(std::move(second.at(0)));
  const cmp::Schema& schema = trees[0].schema();

  // Default output, one tree, through --out.
  const cmp::PredictOptions defaults;
  const cmp::CompiledTree compiled = cmp::CompiledTree::Compile(trees[0]);
  const std::string single = OstreamCsv(
      ds, schema, defaults,
      cmp::BatchPredictor(&compiled, defaults).Predict(ds));
  ASSERT_EQ(RunTool("predict --data " + data + " --tree " + tree_a +
                    " --out " + csv),
            0);
  EXPECT_TRUE(Slurp(csv) == single) << "default output differs";

  // Probabilities, top-2 and abstentions on a --vote prob ensemble.
  cmp::PredictOptions opts;
  opts.want_probs = true;
  opts.top_k = 2;
  opts.abstain_threshold = 0.97;
  const cmp::BatchResult voted = ProbVote(trees, opts).Predict(ds);
  ASSERT_GT(voted.num_abstained, 0);
  const std::string ensemble = OstreamCsv(ds, schema, opts, voted);
  ASSERT_NE(ensemble.find(",?,"), std::string::npos);
  const std::string flags = " --tree " + tree_a + "," + tree_b +
                            " --vote prob --probs --top-k 2 --abstain 0.97";
  ASSERT_EQ(RunTool("predict --data " + data + flags + " --out " + csv), 0);
  EXPECT_TRUE(Slurp(csv) == ensemble) << "--probs --top-k output differs";

  // The stdout path: the CSV alone on stdout, the summary on stderr.
  const std::string err = TempPath("oracle.err");
  const std::string cmd = ToolPath() + " predict --data " + data + flags +
                          " > " + csv + " 2> " + err;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_TRUE(Slurp(csv) == ensemble) << "stdout output differs";
  EXPECT_NE(Slurp(err).find("accuracy: "), std::string::npos);

  for (const std::string& p : {data, tree_a, tree_b, csv, err}) {
    std::remove(p.c_str());
  }
}

// Reads `name=<seconds>` from predict's `phases:` line.
double Phase(const std::string& out, const std::string& name) {
  const size_t line = out.find("phases: ");
  const size_t at = out.find(" " + name + "=", line);
  if (line == std::string::npos || at == std::string::npos) return -1.0;
  return std::atof(out.c_str() + at + name.size() + 2);
}

TEST_F(CmptoolTest, PredictPhasesAccountForItsWallTime) {
  const std::string data = TempPath("phases.cmpt");
  const std::string csv = TempPath("phases.csv");
  ASSERT_EQ(RunTool("gen --function F2 --records 200000 --seed 6 --out " +
                    data),
            0);
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);
  std::string out;
  ASSERT_EQ(RunTool("predict --data " + data + " --tree " + tree_ +
                    " --out " + csv,
                    &out),
            0);
  // The phases line follows the lines users and tests already parse.
  const size_t scored = out.find("scored 200000 records");
  ASSERT_NE(scored, std::string::npos) << out;
  ASSERT_NE(out.find("accuracy: "), std::string::npos) << out;
  EXPECT_LT(out.find("accuracy: "), scored) << out;
  EXPECT_GT(out.find("\nphases: io.holdout_load_s="), scored) << out;
  const double load = Phase(out, "io.holdout_load_s");
  const double score = Phase(out, "infer.score_s");
  const double write = Phase(out, "predict.write_s");
  const double wall = Phase(out, "wall_s");
  ASSERT_GT(load, 0.0) << out;
  ASSERT_GT(score, 0.0) << out;
  ASSERT_GT(write, 0.0) << out;
  ASSERT_GT(wall, 0.0) << out;
  EXPECT_NEAR(load + score + write, wall, 0.05 * wall) << out;
  std::remove(data.c_str());
  std::remove(csv.c_str());
}

// cmptool predict streams its input in blocks of this many records.
constexpr int64_t kPredictBlock = 16384;

// The "accuracy: 0.1234 (correct/total)" line predict prints for `csv`,
// counted from the CSV's own `correct` column.
std::string ExpectedAccuracy(const std::string& csv) {
  int64_t correct = 0;
  int64_t total = 0;
  std::istringstream rows(csv);
  std::string line;
  std::getline(rows, line);  // header
  while (std::getline(rows, line)) {
    const size_t c1 = line.find(',');
    const size_t c2 = line.find(',', c1 + 1);
    const size_t c3 = line.find(',', c2 + 1);
    correct += line.compare(c3 + 1, 1, "1") == 0 ? 1 : 0;
    ++total;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f",
                total == 0 ? 0.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(total));
  return "accuracy: " + std::string(buf);
}

// `rows` records of a numeric-only, three-class table with label noise,
// so trees trained on it have impure leaves. Record 0 is class 2: a CSV
// reader, which numbers classes in first-appearance order, then numbers
// them differently from the table and the model.
cmp::Dataset NoisyNumericTable(int64_t rows, uint64_t seed) {
  cmp::Dataset ds(cmp::Schema(
      {{"x0", cmp::AttrKind::kNumeric, 0}, {"x1", cmp::AttrKind::kNumeric, 0},
       {"x2", cmp::AttrKind::kNumeric, 0}, {"x3", cmp::AttrKind::kNumeric, 0}},
      {"low", "high", "top"}));
  std::mt19937_64 rng(seed);
  std::vector<double> x(4);
  for (int64_t r = 0; r < rows; ++r) {
    for (double& v : x) v = static_cast<double>(rng() % 1000);
    cmp::ClassId label = x[2] > 700 ? 2 : (x[0] + x[1] > 1000 ? 1 : 0);
    if (rng() % 100 < 15) label = static_cast<cmp::ClassId>(rng() % 3);
    if (r == 0) label = 2;
    ds.Append(x, {}, label);
  }
  return ds;
}

// The first `n` records of `ds`.
cmp::Dataset Prefix(const cmp::Dataset& ds, int64_t n) {
  cmp::Dataset out(ds.schema());
  std::vector<double> x(ds.schema().num_attrs());
  for (int64_t r = 0; r < n; ++r) {
    for (cmp::AttrId a = 0; a < ds.schema().num_attrs(); ++a) {
      x[a] = ds.numeric(a, r);
    }
    out.Append(x, {}, ds.label(r));
  }
  return out;
}

// The streamed pipeline writes the same bytes and accuracy as the
// whole-table oracle at every block edge, from a .cmpt table, a CSV or
// an ARFF file, on one scoring thread or four, for a single tree and for
// a --probs --top-k 2 --abstain ensemble.
TEST_F(CmptoolTest, PredictStreamMatchesTheOracleAtEveryBlockEdge) {
  const std::string train = TempPath("edges_train.cmpt");
  const std::string tree_a = TempPath("edges_a.tree");
  const std::string tree_b = TempPath("edges_b.tree");
  const std::string csv = TempPath("edges.csv");
  ASSERT_TRUE(cmp::SaveTableFile(NoisyNumericTable(6000, 3), train));
  ASSERT_EQ(RunTool("train --data " + train + " --algo cmp --out " + tree_a),
            0);
  ASSERT_EQ(RunTool("train --data " + train + " --algo sliq --out " + tree_b),
            0);
  std::vector<cmp::DecisionTree> trees, second;
  ASSERT_TRUE(cmp::LoadTrees(tree_a, &trees));
  ASSERT_TRUE(cmp::LoadTrees(tree_b, &second));
  trees.push_back(std::move(second.at(0)));
  const cmp::Schema& schema = trees[0].schema();
  const cmp::CompiledTree compiled = cmp::CompiledTree::Compile(trees[0]);
  const cmp::PredictOptions defaults;
  cmp::PredictOptions voted;
  voted.want_probs = true;
  voted.top_k = 2;
  voted.abstain_threshold = 0.9;
  const cmp::BatchPredictor ensemble = ProbVote(trees, voted);
  const std::string voted_flags = " --tree " + tree_a + "," + tree_b +
                                  " --vote prob --probs --top-k 2"
                                  " --abstain 0.9";

  const cmp::Dataset holdout = NoisyNumericTable(3 * kPredictBlock + 17, 4);
  bool abstained = false;
  for (const int64_t n :
       {int64_t{0}, int64_t{1}, kPredictBlock - 1, kPredictBlock,
        kPredictBlock + 1, 3 * kPredictBlock + 17}) {
    const cmp::Dataset ds = Prefix(holdout, n);
    const std::string single_csv = OstreamCsv(
        ds, schema, defaults,
        cmp::BatchPredictor(&compiled, defaults).Predict(ds));
    const std::string voted_csv =
        OstreamCsv(ds, schema, voted, ensemble.Predict(ds));
    abstained = abstained || voted_csv.find(",?,") != std::string::npos;

    const std::string base = TempPath("edges_" + std::to_string(n));
    const std::string table = base + ".cmpt";
    const std::string text = base + ".csv";
    const std::string arff = base + ".arff";
    ASSERT_TRUE(cmp::SaveTableFile(ds, table));
    ASSERT_TRUE(cmp::SaveCsv(ds, text));
    ASSERT_TRUE(cmp::SaveArff(ds, "edges", arff));
    for (const std::string& input : {table, text, arff}) {
      std::string out;
      if (input == text && n == 0) {
        // A CSV's schema is inferred from its rows; with none it is
        // unreadable.
        EXPECT_EQ(RunTool("predict --data " + input + " --tree " + tree_a +
                          " --out " + csv, &out),
                  kIo)
            << n << " rows: " << out;
        continue;
      }
      for (const char* threads : {"1", "4"}) {
        const std::string what = input + " --threads " + threads;
        ASSERT_EQ(RunTool("predict --data " + input + " --tree " + tree_a +
                          " --threads " + threads + " --out " + csv, &out),
                  0)
            << what << ": " << out;
        EXPECT_TRUE(Slurp(csv) == single_csv) << what << " differs";
        EXPECT_EQ(AccuracyLine(out), ExpectedAccuracy(single_csv)) << what;

        ASSERT_EQ(RunTool("predict --data " + input + voted_flags +
                          " --threads " + threads + " --out " + csv, &out),
                  0)
            << what << ": " << out;
        EXPECT_TRUE(Slurp(csv) == voted_csv) << what << " --probs differs";
        EXPECT_EQ(AccuracyLine(out), ExpectedAccuracy(voted_csv)) << what;
      }
    }
    // eval matches the CSV's classes to the model's by name too.
    std::string table_eval, text_eval;
    if (n > 0) {
      ASSERT_EQ(RunTool("eval --data " + table + " --tree " + tree_a,
                        &table_eval),
                0);
      ASSERT_EQ(RunTool("eval --data " + text + " --tree " + tree_a,
                        &text_eval),
                0);
      EXPECT_EQ(AccuracyLine(text_eval), AccuracyLine(table_eval));
      EXPECT_EQ(AccuracyLine(table_eval), ExpectedAccuracy(single_csv));
    }
    for (const std::string& p : {table, text, arff}) std::remove(p.c_str());
  }
  EXPECT_TRUE(abstained) << "no ensemble row abstained";
  for (const std::string& p : {train, tree_a, tree_b, csv}) {
    std::remove(p.c_str());
  }
}

// A block that fails its NaN or range check mid-stream fails the whole
// command: exit 3, no summary, and no partial --out file. An unwritable
// --out stops the stream and fails too, without hanging.
TEST_F(CmptoolTest, PredictStreamFailsWholeOnALateBadBlock) {
  const int64_t n = 3 * kPredictBlock + 17;
  const std::string data = TempPath("late.cmpt");
  const std::string bad = TempPath("late_bad.cmpt");
  const std::string csv = TempPath("late.csv");
  ASSERT_EQ(RunTool("gen --function F2 --records " + std::to_string(n) +
                    " --seed 9 --out " + data),
            0);
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);
  cmp::Schema schema;
  int64_t records = 0;
  cmp::TableLayout layout;
  ASSERT_TRUE(cmp::ReadTableHeader(data, &schema, &records));
  ASSERT_TRUE(cmp::ComputeTableLayout(schema, records, &layout));
  const std::string good = Slurp(data);

  // Only the last record is bad, so only the last block fails.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int32_t code = 100000000;
  std::string nan_bytes = good;
  std::memcpy(&nan_bytes[layout.column_offsets[schema.FindAttr("salary")] +
                         (n - 1) * sizeof(double)],
              &nan, sizeof(nan));
  std::string code_bytes = good;
  std::memcpy(&code_bytes[layout.column_offsets[schema.FindAttr("elevel")] +
                          (n - 1) * sizeof(int32_t)],
              &code, sizeof(code));
  for (const std::string& bytes : {nan_bytes, code_bytes}) {
    WriteFile(bad, bytes);
    for (const char* threads : {"1", "4"}) {
      WriteFile(csv, "stale");
      std::string out;
      EXPECT_EQ(RunTool("predict --data " + bad + " --tree " + tree_ +
                        " --probs --threads " + threads + " --out " + csv,
                        &out),
                kIo)
          << out;
      EXPECT_NE(out.find("failed to read " + bad), std::string::npos) << out;
      EXPECT_EQ(out.find("accuracy:"), std::string::npos) << out;
      EXPECT_FALSE(std::ifstream(csv).good()) << "--out file left behind";
    }
  }

  // /dev/full accepts the open and fails every write; the first ~1 MB
  // drain fails mid-stream. `timeout` turns a hang into a failure.
  if (std::ifstream("/dev/full").good()) {
    const std::string capture = TempPath("late_full.txt");
    const std::string cmd = "timeout 60 " + ToolPath() + " predict --data " +
                            data + " --tree " + tree_ +
                            " --probs --out /dev/full > " + capture + " 2>&1";
    const int raw = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(raw));
    EXPECT_EQ(WEXITSTATUS(raw), kIo);
    EXPECT_NE(Slurp(capture).find("failed to write /dev/full"),
              std::string::npos)
        << Slurp(capture);
    std::remove(capture.c_str());
  }
  for (const std::string& p : {data, bad, csv}) std::remove(p.c_str());
}

// The summary's thread count for `--threads <flag>`: the flag itself,
// or one per hardware thread when it is 0 or absent.
std::string ResolvedThreads(const std::string& flag) {
  const int n = flag.empty() || flag == "0"
                    ? static_cast<int>(std::thread::hardware_concurrency())
                    : std::atoi(flag.c_str());
  return std::to_string(std::max(n, 1));
}

// The pipeline's bytes are the oracle's at every worker count, from a
// .cmpt table and from a CSV, for a single tree and for a --probs
// --top-k 2 --abstain ensemble, and the summary names the worker count
// the flag resolved to.
TEST_F(CmptoolTest, PredictBytesDoNotDependOnThreads) {
  const std::string train = TempPath("threads_train.cmpt");
  const std::string tree_a = TempPath("threads_a.tree");
  const std::string tree_b = TempPath("threads_b.tree");
  const std::string table = TempPath("threads.cmpt");
  const std::string text = TempPath("threads.csv");
  const std::string long_table = TempPath("threads_long.cmpt");
  const std::string csv = TempPath("threads_out.csv");
  ASSERT_TRUE(cmp::SaveTableFile(NoisyNumericTable(6000, 5), train));
  ASSERT_EQ(RunTool("train --data " + train + " --algo cmp --out " + tree_a),
            0);
  ASSERT_EQ(RunTool("train --data " + train + " --algo sliq --out " + tree_b),
            0);
  std::vector<cmp::DecisionTree> trees, second;
  ASSERT_TRUE(cmp::LoadTrees(tree_a, &trees));
  ASSERT_TRUE(cmp::LoadTrees(tree_b, &second));
  trees.push_back(std::move(second.at(0)));
  const cmp::Schema& schema = trees[0].schema();
  const cmp::CompiledTree compiled = cmp::CompiledTree::Compile(trees[0]);
  const cmp::PredictOptions defaults;
  cmp::PredictOptions voted;
  voted.want_probs = true;
  voted.top_k = 2;
  voted.abstain_threshold = 0.9;
  const cmp::BatchPredictor ensemble = ProbVote(trees, voted);
  const std::string voted_flags = " --tree " + tree_a + "," + tree_b +
                                  " --vote prob --probs --top-k 2"
                                  " --abstain 0.9";

  // The long table has more blocks than one or two workers have slots,
  // so slots are reused.
  const cmp::Dataset ds = NoisyNumericTable(3 * kPredictBlock + 17, 6);
  const cmp::Dataset long_ds = NoisyNumericTable(10 * kPredictBlock + 17, 7);
  ASSERT_TRUE(cmp::SaveTableFile(ds, table));
  ASSERT_TRUE(cmp::SaveCsv(ds, text));
  ASSERT_TRUE(cmp::SaveTableFile(long_ds, long_table));
  for (const auto& [input, data] :
       {std::pair<std::string, const cmp::Dataset*>{table, &ds},
        {text, &ds},
        {long_table, &long_ds}}) {
    const std::string single_csv = OstreamCsv(
        *data, schema, defaults,
        cmp::BatchPredictor(&compiled, defaults).Predict(*data));
    const std::string voted_csv =
        OstreamCsv(*data, schema, voted, ensemble.Predict(*data));
    ASSERT_NE(voted_csv.find(",?,"), std::string::npos);
    const std::string scored =
        "scored " + std::to_string(data->num_records()) + " records with ";
    for (const std::string threads : {"1", "2", "3", "4", ""}) {
      const std::string flag = threads.empty() ? "" : " --threads " + threads;
      const std::string what = input + flag;
      const std::string count = ResolvedThreads(threads);
      for (const auto& [flags, expected, num_trees] :
           {std::tuple<std::string, std::string, int>{" --tree " + tree_a,
                                                      single_csv, 1},
            {voted_flags, voted_csv, 2}}) {
        std::string out;
        ASSERT_EQ(RunTool("predict --data " + input + flags + flag +
                          " --out " + csv, &out),
                  0)
            << what << ": " << out;
        EXPECT_TRUE(Slurp(csv) == expected) << what << flags << " differs";
        EXPECT_EQ(AccuracyLine(out), ExpectedAccuracy(expected)) << what;
        EXPECT_NE(out.find(scored + std::to_string(num_trees) + " tree(s)"),
                  std::string::npos)
            << out;
        EXPECT_NE(out.find(", " + count + " thread(s), "), std::string::npos)
            << what << ": " << out;
        EXPECT_NE(out.find("\nbusy: io.holdout_load_s="), std::string::npos)
            << out;
        EXPECT_NE(out.find(" workers=" + count + "\n"), std::string::npos)
            << what << ": " << out;
      }
    }
  }
  for (const std::string& p :
       {train, tree_a, tree_b, table, text, long_table, csv}) {
    std::remove(p.c_str());
  }
}

// A bad block early in the table, while later blocks are already being
// read and scored, fails the whole command as a late one does: exit 3,
// no summary, no --out file, and on stdout no row of the bad block or
// any block after it. An unwritable --out fails too, without hanging.
// Repeated to give a race in the pipeline's shutdown a chance to show.
TEST_F(CmptoolTest, PredictStreamFailsWholeOnAnEarlyBadBlock) {
  const int64_t n = 3 * kPredictBlock + 17;
  const std::string data = TempPath("early.cmpt");
  const std::string bad = TempPath("early_bad.cmpt");
  const std::string csv = TempPath("early.csv");
  const std::string err = TempPath("early.err");
  ASSERT_EQ(RunTool("gen --function F2 --records " + std::to_string(n) +
                    " --seed 10 --out " + data),
            0);
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);
  cmp::Schema schema;
  int64_t records = 0;
  cmp::TableLayout layout;
  ASSERT_TRUE(cmp::ReadTableHeader(data, &schema, &records));
  ASSERT_TRUE(cmp::ComputeTableLayout(schema, records, &layout));
  const std::string good = Slurp(data);

  // The bad value sits in the middle of block 1.
  const int64_t at = kPredictBlock + kPredictBlock / 2;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int32_t code = 100000000;
  std::string nan_bytes = good;
  std::memcpy(&nan_bytes[layout.column_offsets[schema.FindAttr("salary")] +
                         at * sizeof(double)],
              &nan, sizeof(nan));
  std::string code_bytes = good;
  std::memcpy(&code_bytes[layout.column_offsets[schema.FindAttr("elevel")] +
                          at * sizeof(int32_t)],
              &code, sizeof(code));
  const bool dev_full = std::ifstream("/dev/full").good();
  for (int round = 0; round < 20; ++round) {
    for (const std::string& bytes : {nan_bytes, code_bytes}) {
      WriteFile(bad, bytes);
      for (const std::string threads : {" --threads 1", " --threads 4", ""}) {
        const std::string what =
            "round " + std::to_string(round) + threads + ": ";
        const std::string predict = "predict --data " + bad + " --tree " +
                                    tree_ + " --probs" + threads;
        WriteFile(csv, "stale");
        std::string out;
        ASSERT_EQ(RunTool(predict + " --out " + csv, &out), kIo)
            << what << out;
        EXPECT_NE(out.find("failed to read " + bad), std::string::npos)
            << what << out;
        EXPECT_EQ(out.find("accuracy:"), std::string::npos) << what << out;
        EXPECT_FALSE(std::ifstream(csv).good())
            << what << "--out file left behind";

        // To stdout: whatever was written holds only block 0's rows.
        const std::string cmd = ToolPath() + " " + predict + " > " + csv +
                                " 2> " + err;
        const int raw = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(raw)) << what;
        EXPECT_EQ(WEXITSTATUS(raw), kIo) << what;
        EXPECT_NE(Slurp(err).find("failed to read " + bad), std::string::npos)
            << what << Slurp(err);
        std::istringstream lines(Slurp(csv));
        std::string line;
        int64_t last = -1;
        while (std::getline(lines, line)) {
          if (line.rfind("record,", 0) == 0) continue;  // the header
          last = std::max<int64_t>(last, std::atoll(line.c_str()));
        }
        EXPECT_LT(last, kPredictBlock) << what << "row " << last << " written";
      }
    }
    if (dev_full) {
      const std::string cmd = "timeout 60 " + ToolPath() + " predict --data " +
                              data + " --tree " + tree_ +
                              " --probs --threads 4 --out /dev/full > " + err +
                              " 2>&1";
      const int raw = std::system(cmd.c_str());
      ASSERT_TRUE(WIFEXITED(raw));
      EXPECT_EQ(WEXITSTATUS(raw), kIo) << Slurp(err);
    }
  }
  for (const std::string& p : {data, bad, csv, err}) std::remove(p.c_str());
}

// Data whose attribute count or attribute kinds differ from the
// model's, or that names a class the model lacks, fails predict and eval
// with exit 3 and the reason, from a CSV or a .cmpt table, for a text
// tree, a forest or a blob. It used to index columns or classes out of
// range.
TEST_F(CmptoolTest, SchemaMismatchFailsPredictAndEval) {
  const std::string f7 = TempPath("mismatch_f7.cmpt");
  const std::string tree = TempPath("mismatch.tree");
  const std::string forest = TempPath("mismatch.forest");
  const std::string blob = TempPath("mismatch.cmpb");
  const std::string csv = TempPath("mismatch.csv");
  ASSERT_EQ(RunTool("gen --function F7 --records 3000 --seed 2 --out " + f7),
            0);
  ASSERT_EQ(RunTool("train --data " + f7 + " --algo cmp --out " + tree), 0);
  ASSERT_EQ(RunTool("compile --tree " + tree + " --out " + blob), 0);
  std::vector<cmp::DecisionTree> trees;
  ASSERT_TRUE(cmp::LoadTrees(tree, &trees));
  trees.push_back(trees[0]);
  ASSERT_TRUE(cmp::SaveForest(trees, forest));

  // Three columns against nine attributes, in both input formats.
  const std::string narrow_csv = TempPath("narrow.csv");
  const std::string narrow_table = TempPath("narrow.cmpt");
  WriteFile(narrow_csv, "a,b,class\n1,2,groupA\n3,4,groupB\n5,6,groupA\n");
  ASSERT_TRUE(cmp::SaveTableFile(NoisyNumericTable(50, 1), narrow_table));
  for (const std::string& data : {narrow_csv, narrow_table}) {
    for (const std::string& model : {tree, forest, blob}) {
      std::string out;
      std::remove(csv.c_str());
      EXPECT_EQ(RunTool("predict --data " + data + " --tree " + model +
                        " --out " + csv, &out),
                kIo)
          << out;
      EXPECT_NE(out.find("schema of " + data +
                         " does not match the model: it has "),
                std::string::npos)
          << out;
      EXPECT_FALSE(std::ifstream(csv).good()) << "--out opened";
      if (model == blob) continue;  // eval reads text trees only
      EXPECT_EQ(RunTool("eval --data " + data + " --tree " + model, &out),
                kIo)
          << out;
      EXPECT_NE(out.find("schema of " + data + " does not match the model"),
                std::string::npos)
          << out;
    }
  }

  // The same attribute count with a wrong kind or class count.
  const std::string two = TempPath("two.csv");
  const std::string two_tree = TempPath("two.tree");
  WriteFile(two, "a,b,class\n1,2,yes\n3,4,no\n5,6,yes\n7,8,no\n");
  ASSERT_EQ(RunTool("train --data " + two + " --algo cmp --out " + two_tree),
            0);
  const std::string kinds = TempPath("kinds.csv");
  const std::string classes = TempPath("classes.csv");
  WriteFile(kinds, "a,b,class\n1,x,yes\n3,y,no\n");
  WriteFile(classes, "a,b,class\n1,2,yes\n3,4,no\n5,6,maybe\n");
  for (const auto& [data, reason] :
       {std::pair<std::string, std::string>{
            kinds, "attribute 1 (b) is categorical, the model's b is numeric"},
        {classes, "class maybe is not one of its 2 classes"}}) {
    std::string out;
    EXPECT_EQ(RunTool("predict --data " + data + " --tree " + two_tree, &out),
              kIo)
        << out;
    EXPECT_NE(out.find(reason), std::string::npos) << out;
    EXPECT_EQ(RunTool("eval --data " + data + " --tree " + two_tree, &out),
              kIo)
        << out;
    EXPECT_NE(out.find(reason), std::string::npos) << out;
  }
  for (const std::string& p : {f7, tree, forest, blob, csv, narrow_csv,
                               narrow_table, two, two_tree, kinds, classes}) {
    std::remove(p.c_str());
  }
}

}  // namespace
