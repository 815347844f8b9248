// Distributed training determinism: DistTrain forks K worker processes
// that each scan one horizontal slice of the table and ship histogram /
// pending / collect state back over the wire protocol. The rank-order
// merge must make the tree BYTE-IDENTICAL to a single-process build for
// every worker count, thread count and block size — the same contract
// the in-process sharded scan and the out-of-core pipeline already
// carry, extended across process boundaries.

#include "dist/dist.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "io/table_file.h"
#include "tree/observer.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class DistTrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AgrawalOptions gen;
    gen.function = AgrawalFunction::kF6;  // exercises pending + linear
    gen.num_records = 4000;
    gen.seed = 977;
    gen.perturbation = 0.05;
    ds_ = GenerateAgrawal(gen);
    path_ = TempPath("dist_train.cmpt");
    ASSERT_TRUE(SaveTableFile(ds_, path_));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Dataset ds_;
  std::string path_;
};

TEST_F(DistTrainTest, TreeIdenticalAcrossWorkersThreadsAndBlocks) {
  CmpOptions options = CmpSOptions();
  options.base.in_memory_threshold = 256;  // exercise collect + stash
  const std::string reference =
      SerializeTree(CmpBuilder(options).Build(ds_).tree);
  ASSERT_FALSE(reference.empty());

  for (const int workers : {1, 2, 4}) {
    for (const int threads : {1, 2}) {
      // 0 = whole slice as one block (the in-memory profile); 700 is a
      // non-divisor of every slice length (the --stream profile).
      for (const int64_t block : {int64_t{0}, int64_t{700}}) {
        dist::DistOptions d;
        d.num_workers = workers;
        d.num_threads = threads;
        d.block_records = block;
        options.base.num_threads = threads;
        const BuildResult result = dist::DistTrain(path_, options, d);
        EXPECT_EQ(SerializeTree(result.tree), reference)
            << "workers=" << workers << " threads=" << threads
            << " block=" << block;
      }
    }
  }
}

TEST_F(DistTrainTest, AllVariantsMatchSingleProcess) {
  const CmpOptions variants[] = {CmpSOptions(), CmpBOptions(),
                                 CmpFullOptions()};
  for (const CmpOptions& options : variants) {
    const std::string reference =
        SerializeTree(CmpBuilder(options).Build(ds_).tree);
    dist::DistOptions d;
    d.num_workers = 3;
    const BuildResult result = dist::DistTrain(path_, options, d);
    EXPECT_EQ(SerializeTree(result.tree), reference);
  }
}

TEST_F(DistTrainTest, DisabledCodesStillMatch) {
  // The workers honor the scan-variant flag; both settings must land on
  // the same bytes (the flag trades speed, never results).
  CmpOptions options = CmpFullOptions();
  const std::string reference =
      SerializeTree(CmpBuilder(options).Build(ds_).tree);
  for (const bool codes : {false, true}) {
    options.bin_code_cache = codes;
    dist::DistOptions d;
    d.num_workers = 2;
    const BuildResult result = dist::DistTrain(path_, options, d);
    EXPECT_EQ(SerializeTree(result.tree), reference) << "codes=" << codes;
  }
}

TEST_F(DistTrainTest, MoreWorkersThanRecordsIsLegal) {
  // Tiny table, K = 8: several slices are empty; they scan nothing and
  // ack zero-record slices, and the tree still matches.
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 5;
  gen.seed = 7;
  const Dataset tiny = GenerateAgrawal(gen);
  const std::string tiny_path = TempPath("dist_tiny.cmpt");
  ASSERT_TRUE(SaveTableFile(tiny, tiny_path));
  CmpOptions options = CmpSOptions();
  const std::string reference =
      SerializeTree(CmpBuilder(options).Build(tiny).tree);
  dist::DistOptions d;
  d.num_workers = 8;
  const BuildResult result = dist::DistTrain(tiny_path, options, d);
  EXPECT_EQ(SerializeTree(result.tree), reference);
  std::remove(tiny_path.c_str());
}

TEST_F(DistTrainTest, ObserverSeesWorkerAndWireStats) {
  TrainStatsCollector collector;
  CmpOptions options = CmpSOptions();
  options.base.observer = &collector;
  dist::DistOptions d;
  d.num_workers = 2;
  const BuildResult result = dist::DistTrain(path_, options, d);
  ASSERT_GT(result.tree.num_nodes(), 1);
  const std::string json = collector.ToJson();
  EXPECT_NE(json.find("\"workers\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("wire_bytes_per_pass"), std::string::npos);
  EXPECT_NE(json.find("merge_seconds"), std::string::npos);
}

TEST_F(DistTrainTest, WorkerDeathMidPassFailsTheBuild) {
  // CMP_DIST_TEST_DIE="rank:pass" makes that worker _exit(1) upon the
  // given pass's kPassBegin; the coordinator must notice the closed
  // socket, reap everyone and throw — never hang.
  ::setenv("CMP_DIST_TEST_DIE", "1:1", 1);
  dist::DistOptions d;
  d.num_workers = 2;
  CmpOptions options = CmpSOptions();
  options.base.in_memory_threshold = 256;  // force a multi-pass build
  try {
    dist::DistTrain(path_, options, d);
    ::unsetenv("CMP_DIST_TEST_DIE");
    FAIL() << "a dead worker must fail the build";
  } catch (const std::runtime_error& e) {
    ::unsetenv("CMP_DIST_TEST_DIE");
    EXPECT_NE(std::string(e.what()).find("worker 1"), std::string::npos)
        << e.what();
  }
}

TEST_F(DistTrainTest, InvalidConfigurationsThrow) {
  dist::DistOptions d;
  d.num_workers = 0;
  EXPECT_THROW(dist::DistTrain(path_, CmpSOptions(), d),
               std::runtime_error);
  d.num_workers = 2;
  EXPECT_THROW(dist::DistTrain(TempPath("no_such_table.cmpt"),
                               CmpSOptions(), d),
               std::runtime_error);
}

}  // namespace
}  // namespace cmp
