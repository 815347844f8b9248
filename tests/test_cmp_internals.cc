// Behavior tests of CMP's internal machinery, observed through its cost
// counters and tree output: deferred-resolution buffering, the
// degenerate-resolution fallback, and multi-level growth.

#include <gtest/gtest.h>

#include "cmp/cmp.h"
#include "common/random.h"
#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "tree/evaluate.h"

namespace cmp {
namespace {

Dataset MakeData(AgrawalFunction f, int64_t n, uint64_t seed) {
  AgrawalOptions gen;
  gen.function = f;
  gen.num_records = n;
  gen.seed = seed;
  return GenerateAgrawal(gen);
}

TEST(CmpInternals, PendingSplitsBufferRecords) {
  // Deferred resolution must set aside some records (the alive-interval
  // buffers) but far fewer than the dataset per scan.
  const Dataset train = MakeData(AgrawalFunction::kF2, 30000, 601);
  CmpOptions o = CmpSOptions();
  o.base.in_memory_threshold = 0;
  CmpBuilder builder(o);
  const BuildResult result = builder.Build(train);
  EXPECT_GT(result.stats.buffered_records, 0);
  // With 100 intervals an alive interval holds ~1-2% of a node, so the
  // total buffered volume stays well below one full pass per level.
  EXPECT_LT(result.stats.buffered_records,
            result.stats.dataset_scans * train.num_records() / 4);
}

TEST(CmpInternals, RootAliveCountWithinMaxAlive) {
  const Dataset train = MakeData(AgrawalFunction::kF2, 20000, 603);
  for (const int max_alive : {1, 2, 3}) {
    CmpOptions o = CmpSOptions();
    o.max_alive = max_alive;
    CmpBuilder builder(o);
    const BuildResult result = builder.Build(train);
    EXPECT_LE(result.stats.root_alive_intervals, max_alive);
  }
}

TEST(CmpInternals, DegenerateAttributeFallsBackGracefully) {
  // A dataset where one attribute is a giant tie bucket correlated with
  // the label enough to be tempting: the builder must not leave large
  // impure leaves behind (the collect fallback finishes them exactly).
  Schema schema({{"spike", AttrKind::kNumeric, 0},
                 {"signal", AttrKind::kNumeric, 0}},
                {"a", "b"});
  Dataset ds(schema);
  Rng rng(605);
  for (int i = 0; i < 20000; ++i) {
    const double signal = rng.Uniform(0, 1);
    // spike: 70% exactly zero, else uniform; label depends on signal.
    const double spike = rng.Bernoulli(0.7) ? 0.0 : rng.Uniform(0, 1);
    ds.Append({spike, signal}, {}, signal > 0.5 ? 0 : 1);
  }
  CmpBuilder builder(CmpSOptions());
  const BuildResult result = builder.Build(ds);
  EXPECT_GT(Evaluate(result.tree, ds).Accuracy(), 0.99);
}

TEST(CmpInternals, ScanCountGrowsSublinearlyWithDepth) {
  // CMP-B's multi-level growth: scans must stay below depth+2 on a
  // workload with X-axis-friendly structure.
  const Dataset train = MakeData(AgrawalFunction::kF2, 50000, 611);
  CmpBuilder builder(CmpBOptions());
  const BuildResult result = builder.Build(train);
  EXPECT_LE(result.stats.dataset_scans, result.stats.tree_depth + 2);
}

TEST(CmpInternals, ReadOnlyDataset) {
  // CMP never modifies the training set: two consecutive builds on the
  // same data produce identical trees and identical counters.
  const Dataset train = MakeData(AgrawalFunction::kF7, 15000, 613);
  CmpBuilder builder(CmpFullOptions());
  const BuildResult a = builder.Build(train);
  const BuildResult b = builder.Build(train);
  EXPECT_EQ(a.tree.num_nodes(), b.tree.num_nodes());
  EXPECT_EQ(a.stats.dataset_scans, b.stats.dataset_scans);
  EXPECT_EQ(a.stats.buffered_records, b.stats.buffered_records);
  for (RecordId r = 0; r < 100; ++r) {
    EXPECT_EQ(a.tree.Classify(train, r), b.tree.Classify(train, r));
  }
}

TEST(CmpInternals, BytesReadScaleWithScans) {
  const Dataset train = MakeData(AgrawalFunction::kF2, 20000, 615);
  CmpBuilder builder(CmpSOptions());
  const BuildResult result = builder.Build(train);
  // Every full scan reads the whole table.
  EXPECT_EQ(result.stats.bytes_read,
            result.stats.dataset_scans * train.TotalBytes());
}

TEST(CmpInternals, MemoryScalesWithIntervalCount) {
  const Dataset train = MakeData(AgrawalFunction::kF2, 30000, 617);
  CmpOptions small = CmpBOptions();
  small.intervals = 25;
  CmpOptions big = CmpBOptions();
  big.intervals = 200;
  CmpBuilder small_builder(small);
  CmpBuilder big_builder(big);
  EXPECT_LT(small_builder.Build(train).stats.peak_memory_bytes,
            big_builder.Build(train).stats.peak_memory_bytes);
}

}  // namespace
}  // namespace cmp
