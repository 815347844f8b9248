// Out-of-core training: streaming a CMPT table through CmpBuilder::
// BuildStreamed must produce a tree BYTE-IDENTICAL to the in-memory
// Build, for every block size and thread count — the same determinism
// contract the parallel build already carries, extended to the block
// pipeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cmp/cmp.h"
#include "common/random.h"
#include "datagen/agrawal.h"
#include "io/block_source.h"
#include "io/table_file.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class OocTrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AgrawalOptions gen;
    gen.function = AgrawalFunction::kF6;  // exercises pending + linear
    gen.num_records = 4000;
    gen.seed = 977;
    gen.perturbation = 0.05;
    ds_ = GenerateAgrawal(gen);
    path_ = TempPath("ooc_train.cmpt");
    ASSERT_TRUE(SaveTableFile(ds_, path_));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  BuildResult BuildStreamed(CmpOptions options, int64_t block) {
    auto source = TableBlockSource::Open(path_, block);
    EXPECT_NE(source, nullptr);
    CmpBuilder builder(options);
    return builder.BuildStreamed(*source);
  }

  Dataset ds_;
  std::string path_;
};

TEST_F(OocTrainTest, StreamedTreeIdenticalAcrossBlockSizesAndThreads) {
  CmpOptions options = CmpSOptions();
  options.base.in_memory_threshold = 256;  // exercise collect + stash
  const std::string reference =
      SerializeTree(CmpBuilder(options).Build(ds_).tree);
  ASSERT_FALSE(reference.empty());

  // 1 (degenerate), a non-divisor, a divisor, n, and > n (single block).
  const int64_t kBlocks[] = {1, 700, 1000, 4000, 4096};
  for (const int64_t block : kBlocks) {
    for (const int threads : {1, 2, 4}) {
      options.base.num_threads = threads;
      // Pin the shard count so this keeps exercising multi-shard merges
      // even on a single-hardware-thread runner (auto caps shards there).
      options.scan_shards = threads;
      const BuildResult streamed = BuildStreamed(options, block);
      EXPECT_EQ(SerializeTree(streamed.tree), reference)
          << "block=" << block << " threads=" << threads;
    }
  }
}

// One thread reads every block synchronously; four read the next block
// ahead on a worker. The tree must not notice.
TEST_F(OocTrainTest, PrefetchDoesNotChangeTheTree) {
  CmpOptions options = CmpSOptions();
  options.base.num_threads = 1;
  const std::string synchronous = SerializeTree(BuildStreamed(options, 512).tree);
  options.base.num_threads = 4;
  const std::string prefetched = SerializeTree(BuildStreamed(options, 512).tree);
  EXPECT_EQ(synchronous, prefetched);
}

TEST_F(OocTrainTest, AllVariantsMatchInMemory) {
  for (CmpOptions options :
       {CmpSOptions(), CmpBOptions(), CmpFullOptions()}) {
    options.base.num_threads = 2;
    const std::string reference =
        SerializeTree(CmpBuilder(options).Build(ds_).tree);
    const BuildResult streamed = BuildStreamed(options, 777);
    EXPECT_EQ(SerializeTree(streamed.tree), reference);
  }
}

TEST_F(OocTrainTest, PureScanPathMatchesInMemory) {
  // in_memory_threshold 0 disables the exact-finish switch entirely:
  // every node grows through histogram scans and pending resolution,
  // the heaviest use of the stash (buffered records only).
  CmpOptions options = CmpSOptions();
  options.base.in_memory_threshold = 0;
  const std::string reference =
      SerializeTree(CmpBuilder(options).Build(ds_).tree);
  for (const int64_t block : {333, 4000}) {
    const BuildResult streamed = BuildStreamed(options, block);
    EXPECT_EQ(SerializeTree(streamed.tree), reference) << "block=" << block;
  }
}

TEST_F(OocTrainTest, ReportsRealBytesAndBoundedResidentMemory) {
  CmpOptions options = CmpSOptions();
  const int64_t block = 500;
  auto source = TableBlockSource::Open(path_, block);
  ASSERT_NE(source, nullptr);
  CmpBuilder builder(options);
  const BuildResult result = builder.BuildStreamed(*source);

  // Real-I/O accounting: at least one full pass of actual file bytes,
  // and exactly what the source measured.
  const int64_t one_pass = ds_.num_records() * ds_.schema().RecordBytes();
  EXPECT_GE(result.stats.bytes_read, one_pass);
  EXPECT_EQ(result.stats.bytes_read, source->bytes_read());
  EXPECT_GT(result.stats.dataset_scans, 1);

  // Staging memory is two block buffers, not the table: O(block), with
  // 64-byte alignment padding per column as the only overhead.
  const int64_t padding =
      64 * (ds_.schema().num_attrs() + 1) * 2;  // per column, per slot
  EXPECT_LE(source->resident_bytes(),
            2 * block * ds_.schema().RecordBytes() + padding);
  EXPECT_LT(source->resident_bytes(), one_pass);
}

// A streamed setup stages each numeric column a chunk at a time and reads
// it at least three times: bytes_read charges every read, and
// peak_memory_bytes counts the setup's buffers, among them each column's
// four counters for each of its 4096 buckets.
TEST_F(OocTrainTest, SetupReadsColumnsInChunksAndCountsItsBuffers) {
  const BuildResult result = BuildStreamed(CmpSOptions(), 500);
  const int64_t n = ds_.num_records();
  const int64_t numeric =
      static_cast<int64_t>(ds_.schema().NumericAttrs().size());
  EXPECT_GE(result.stats.bytes_read,
            3 * numeric * n * static_cast<int64_t>(sizeof(double)) +
                n * ds_.schema().RecordBytes());
  EXPECT_GE(result.stats.peak_memory_bytes,
            numeric * 4 * 4096 * static_cast<int64_t>(sizeof(uint32_t)));
}

TEST_F(OocTrainTest, DatasetBlockSourceMatchesToo) {
  // The zero-copy in-memory source, sliced into small blocks, must also
  // hit the reference tree — this isolates the block pipeline from the
  // file reader.
  CmpOptions options = CmpSOptions();
  options.base.in_memory_threshold = 256;
  const std::string reference =
      SerializeTree(CmpBuilder(options).Build(ds_).tree);
  for (const int threads : {1, 4}) {
    options.base.num_threads = threads;
    options.scan_shards = threads;
    DatasetBlockSource source(ds_, /*block_records=*/600);
    CmpBuilder builder(options);
    const BuildResult streamed = builder.BuildStreamed(source);
    EXPECT_EQ(SerializeTree(streamed.tree), reference)
        << "threads=" << threads;
  }
}

TEST_F(OocTrainTest, StreamFailureThrowsInsteadOfSilentlyTraining) {
  auto source = TableBlockSource::Open(path_, 256);
  ASSERT_NE(source, nullptr);
  // Truncate the backing file after Open; the mid-pass read failure
  // must surface as an exception, never as a tree built from a partial
  // table.
  {
    FILE* f = fopen(path_.c_str(), "wb");
    fputs("CMPT", f);
    fclose(f);
  }
  CmpBuilder builder(CmpSOptions());
  EXPECT_THROW(builder.BuildStreamed(*source), std::runtime_error);
}

// A column mixing -0.0 and +0.0 (F7's commission zeros, every other one
// negated: ~72k zeros) compares equal everywhere but orders -0.0 first
// in the grid selection. The tree must not depend on where the signed
// zeros land: one tree in memory at 1 and 4 threads and streamed.
TEST(SignedZeros, OneTreeAcrossThreadsAndStreaming) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF7;
  gen.num_records = 125000;
  gen.seed = 6;
  const Dataset plain = GenerateAgrawal(gen);
  const AttrId commission = plain.schema().FindAttr("commission");
  std::vector<std::vector<double>> numeric(plain.num_attrs());
  std::vector<std::vector<int32_t>> categorical(plain.num_attrs());
  for (AttrId a = 0; a < plain.num_attrs(); ++a) {
    if (plain.schema().is_numeric(a)) {
      numeric[a] = plain.numeric_column(a);
    } else {
      categorical[a] = plain.categorical_column(a);
    }
  }
  int64_t zeros = 0;
  for (double& v : numeric[commission]) {
    if (v == 0.0 && zeros++ % 2 == 1) v = -0.0;
  }
  ASSERT_GT(zeros, 70000);
  const Dataset ds(plain.schema(), std::move(numeric), std::move(categorical),
                   plain.labels());
  const std::string path = TempPath("signed_zeros.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));

  for (CmpOptions options : {CmpSOptions(), CmpFullOptions()}) {
    const std::string reference =
        SerializeTree(CmpBuilder(options).Build(ds).tree);
    options.base.num_threads = 4;
    options.scan_shards = 4;
    EXPECT_EQ(SerializeTree(CmpBuilder(options).Build(ds).tree), reference);
    auto source = TableBlockSource::Open(path, 7000);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(SerializeTree(CmpBuilder(options).BuildStreamed(*source).tree),
              reference);
  }
  std::remove(path.c_str());
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Two numeric attributes and one categorical attribute of cardinality
// 70,000 whose values reach past 65535, so its codes need four bytes: the
// in-memory code matrix stores them as u32, and the streamed store reads
// the block's int32 column in place.
Dataset WideCategoricalTable() {
  Schema schema({{"x", AttrKind::kNumeric, 0},
                 {"c", AttrKind::kCategorical, 70000},
                 {"y", AttrKind::kNumeric, 0}},
                {"neg", "pos"});
  Dataset ds(schema);
  Rng rng(79);
  for (int64_t i = 0; i < 3000; ++i) {
    const int64_t k = rng.UniformInt(0, 39);
    const double x = rng.Uniform(0.0, 100.0);
    const double y = rng.Uniform(0.0, 1.0);
    bool pos = k % 3 == 0 ? x > 30.0 : x + 40.0 * y > 60.0;
    if (rng.Bernoulli(0.05)) pos = !pos;
    ds.Append({x, y}, {static_cast<int32_t>(k * 1733 + 5)}, pos ? 1 : 0);
  }
  return ds;
}

// The 32-bit code width gives one CMP-S tree in memory and streamed, at
// every block size and thread count — the tree the IntervalOf scan built
// for this table before the width existed (its hash is pinned here).
TEST(OocWideCodes, ThirtyTwoBitCategoricalGivesOneTree) {
  const Dataset ds = WideCategoricalTable();
  const std::string path = TempPath("wide_codes.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  CmpOptions options = CmpSOptions();
  options.base.in_memory_threshold = 256;  // scan before collecting
  const std::string reference =
      SerializeTree(CmpBuilder(options).Build(ds).tree);
  EXPECT_EQ(Fnv1a(reference), 0xcbf5319b08b7b387ull);
  const int64_t n = ds.num_records();
  for (const int threads : {1, 4}) {
    options.base.num_threads = threads;
    options.scan_shards = threads;
    EXPECT_EQ(SerializeTree(CmpBuilder(options).Build(ds).tree), reference)
        << "memory threads=" << threads;
    for (const int64_t block : {int64_t{1}, int64_t{700}, n, n + 1}) {
      auto source = TableBlockSource::Open(path, block);
      ASSERT_NE(source, nullptr);
      EXPECT_EQ(SerializeTree(CmpBuilder(options).BuildStreamed(*source).tree),
                reference)
          << "block=" << block << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmp
