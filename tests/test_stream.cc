#include "io/stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "datagen/agrawal.h"
#include "hist/grids.h"
#include "hist/histogram1d.h"
#include "io/table_file.h"

namespace cmp {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AgrawalOptions gen;
    gen.function = AgrawalFunction::kF2;
    gen.num_records = 5000;
    gen.seed = 801;
    original_ = GenerateAgrawal(gen);
    path_ = TempPath("stream.cmpt");
    ASSERT_TRUE(SaveTableFile(original_, path_));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Streams the whole table with the given block size, checking every
  // value against the in-memory original and that no block exceeds the
  // requested size. Returns the number of blocks delivered.
  int StreamAndVerify(int64_t block_records) {
    auto scanner = TableScanner::Open(path_, block_records);
    EXPECT_NE(scanner, nullptr);
    if (scanner == nullptr) return -1;
    EXPECT_EQ(scanner->num_records(), original_.num_records());
    EXPECT_TRUE(scanner->schema() == original_.schema());

    ColumnBlock block;
    RecordId global = 0;
    int blocks = 0;
    while (scanner->NextBlock(&block)) {
      EXPECT_LE(block.count(), block_records);
      EXPECT_EQ(block.begin(), global);
      ++blocks;
      for (int64_t i = 0; i < block.count(); ++i, ++global) {
        for (AttrId a = 0; a < original_.num_attrs(); ++a) {
          if (original_.schema().is_numeric(a)) {
            EXPECT_DOUBLE_EQ(block.numeric(a, i),
                             original_.numeric(a, global));
          } else {
            EXPECT_EQ(block.categorical(a, i),
                      original_.categorical(a, global));
          }
        }
        EXPECT_EQ(block.label(i), original_.label(global));
      }
    }
    EXPECT_EQ(global, original_.num_records());
    return blocks;
  }

  Dataset original_;
  std::string path_;
};

TEST_F(StreamTest, StreamsEveryRecordInOrder) {
  EXPECT_EQ(StreamAndVerify(700), 8);  // 7*700 + 100 remainder
}

TEST_F(StreamTest, BlockSizeOne) { EXPECT_EQ(StreamAndVerify(1), 5000); }

TEST_F(StreamTest, BlockSizeExactlyTableSize) {
  EXPECT_EQ(StreamAndVerify(5000), 1);
}

TEST_F(StreamTest, BlockSizeLargerThanTable) {
  EXPECT_EQ(StreamAndVerify(5001), 1);
}

TEST_F(StreamTest, NonDividingBlockSize) {
  EXPECT_EQ(StreamAndVerify(999), 6);  // 5*999 + 5 remainder
  EXPECT_EQ(StreamAndVerify(4999), 2);
}

TEST_F(StreamTest, ResetAllowsRepeatedPasses) {
  auto scanner = TableScanner::Open(path_, 2048);
  ASSERT_NE(scanner, nullptr);
  ColumnBlock block;
  for (int pass = 0; pass < 3; ++pass) {
    int64_t seen = 0;
    double checksum = 0.0;
    while (scanner->NextBlock(&block)) {
      seen += block.count();
      checksum += block.numeric(0, 0);
    }
    EXPECT_EQ(seen, 5000) << "pass " << pass;
    EXPECT_NE(checksum, 0.0);
    scanner->Reset();
  }
}

TEST_F(StreamTest, ReadBlockIsRandomAccess) {
  auto scanner = TableScanner::Open(path_, 512);
  ASSERT_NE(scanner, nullptr);
  ColumnBlock block;
  // Read a window from the middle without touching the cursor.
  ASSERT_TRUE(scanner->ReadBlock(1234, 100, &block));
  EXPECT_EQ(block.begin(), 1234);
  EXPECT_EQ(block.count(), 100);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(block.label(i), original_.label(1234 + i));
  }
  EXPECT_EQ(scanner->position(), 0);
}

TEST_F(StreamTest, LoadedColumnsMatchDataset) {
  Dataset loaded;
  ASSERT_TRUE(LoadTableFile(path_, &loaded));
  const Schema& schema = original_.schema();
  ASSERT_EQ(loaded.num_records(), original_.num_records());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    for (RecordId r = 0; r < original_.num_records(); ++r) {
      if (schema.is_numeric(a)) {
        ASSERT_EQ(loaded.numeric(a, r), original_.numeric(a, r)) << a;
      } else {
        ASSERT_EQ(loaded.categorical(a, r), original_.categorical(a, r)) << a;
      }
    }
  }
  auto scanner = TableScanner::Open(path_, 512);
  ASSERT_NE(scanner, nullptr);
  std::vector<ClassId> labels;
  ASSERT_TRUE(scanner->ReadLabelColumn(&labels));
  for (RecordId r = 0; r < original_.num_records(); ++r) {
    EXPECT_EQ(loaded.label(r), original_.label(r));
    EXPECT_EQ(labels[r], original_.label(r));
  }
}

TEST_F(StreamTest, StreamedHistogramMatchesInMemory) {
  // The paper's core access pattern: build an interval class histogram
  // in one streaming pass and compare against the in-memory result.
  const auto grids = ComputeEqualDepthGrids(original_, 50, nullptr);
  const AttrId salary = original_.schema().FindAttr("salary");

  Histogram1D in_memory(grids[salary].num_intervals(), 2);
  for (RecordId r = 0; r < original_.num_records(); ++r) {
    in_memory.Add(grids[salary].IntervalOf(original_.numeric(salary, r)),
                  original_.label(r));
  }

  auto scanner = TableScanner::Open(path_, 512);
  ASSERT_NE(scanner, nullptr);
  Histogram1D streamed(grids[salary].num_intervals(), 2);
  ColumnBlock block;
  while (scanner->NextBlock(&block)) {
    for (int64_t i = 0; i < block.count(); ++i) {
      streamed.Add(grids[salary].IntervalOf(block.numeric(salary, i)),
                   block.label(i));
    }
  }
  for (int i = 0; i < streamed.num_intervals(); ++i) {
    for (ClassId c = 0; c < 2; ++c) {
      EXPECT_EQ(streamed.count(i, c), in_memory.count(i, c));
    }
  }
}

TEST_F(StreamTest, CountsRealBytes) {
  auto scanner = TableScanner::Open(path_, 1000);
  ASSERT_NE(scanner, nullptr);
  ColumnBlock block;
  while (scanner->NextBlock(&block)) {
  }
  // One full pass must have pulled at least every column's payload.
  EXPECT_GE(scanner->bytes_read(),
            original_.num_records() * original_.schema().RecordBytes());
}

TEST_F(StreamTest, TruncatedFileRejectedAtOpen) {
  // Chop the final label column short: the header still parses, but the
  // file size no longer matches the record count it claims.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 16);
  EXPECT_EQ(TableScanner::Open(path_, 512), nullptr);
}

TEST_F(StreamTest, PaddedFileRejectedAtOpen) {
  std::ofstream f(path_, std::ios::binary | std::ios::app);
  f.write("....", 4);
  f.close();
  EXPECT_EQ(TableScanner::Open(path_, 512), nullptr);
}

TEST_F(StreamTest, ResetClearsErrorStateAfterMidScanTruncation) {
  auto scanner = TableScanner::Open(path_, 512);
  ASSERT_NE(scanner, nullptr);
  // Truncate AFTER a successful Open, then scan: the pass must fail
  // partway instead of fabricating records.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full / 2);
  ColumnBlock block;
  int64_t seen = 0;
  while (scanner->NextBlock(&block)) seen += block.count();
  EXPECT_LT(seen, 5000);
  // Restore the file. Reset must clear the sticky stream failure so the
  // next pass sees every record again.
  ASSERT_TRUE(SaveTableFile(original_, path_));
  scanner->Reset();
  int64_t second = 0;
  while (scanner->NextBlock(&block)) second += block.count();
  EXPECT_EQ(second, 5000);
}

TEST(Stream, OpenFailsOnMissingOrBadFile) {
  EXPECT_EQ(TableScanner::Open("/does/not/exist.cmpt"), nullptr);
  const std::string path =
      std::string(::testing::TempDir()) + "/garbage.cmpt";
  {
    FILE* f = fopen(path.c_str(), "wb");
    fputs("garbage", f);
    fclose(f);
  }
  EXPECT_EQ(TableScanner::Open(path), nullptr);
  std::remove(path.c_str());
}

TEST(Stream, ZeroBlockSizeRejected) {
  EXPECT_EQ(TableScanner::Open("/tmp/whatever.cmpt", 0), nullptr);
}

}  // namespace
}  // namespace cmp
